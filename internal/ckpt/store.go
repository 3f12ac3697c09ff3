package ckpt

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// ErrNoCheckpoint reports a checkpoint directory with no loadable epoch:
// missing, empty, or containing only torn/corrupt files. Callers treat it
// as "cold start".
var ErrNoCheckpoint = errors.New("ckpt: no checkpoint found")

// Store persists epochs into one directory, keeping the last keep files.
type Store struct {
	dir  string
	keep int

	mu sync.Mutex
}

// Open creates (if needed) the checkpoint directory and returns a store
// retaining the last keep epochs (default 3 when keep <= 0).
func Open(dir string, keep int) (*Store, error) {
	if dir == "" {
		return nil, errors.New("ckpt: empty checkpoint directory")
	}
	if keep <= 0 {
		keep = 3
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("ckpt: %w", err)
	}
	return &Store{dir: dir, keep: keep}, nil
}

func epochFile(epoch uint64) string { return fmt.Sprintf("epoch-%016d.ckpt", epoch) }

// Save encodes and durably persists one epoch: temp file, fsync, atomic
// rename, directory fsync, then garbage collection of epochs beyond the
// retention window. Returns the final path and the encoded size.
func (st *Store) Save(s *Snapshot) (string, int, error) {
	st.mu.Lock()
	defer st.mu.Unlock()

	buf := Encode(s)
	path := filepath.Join(st.dir, epochFile(s.Epoch))
	if err := writeDurable(path, buf); err != nil {
		return "", 0, err
	}
	epochs, err := scanEpochs(st.dir)
	if err != nil {
		return "", 0, err
	}
	for _, e := range epochs[min(len(epochs), st.keep):] {
		os.Remove(e.Path)
	}
	return path, len(buf), nil
}

// writeDurable writes b to path via temp file + fsync + rename + dir
// fsync, so path either holds the complete new content or is untouched.
func writeDurable(path string, b []byte) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("ckpt: %w", err)
	}
	if _, err := f.Write(b); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("ckpt: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("ckpt: %w", err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("ckpt: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("ckpt: %w", err)
	}
	if d, err := os.Open(filepath.Dir(path)); err == nil {
		d.Sync()
		d.Close()
	}
	return nil
}

// FileInfo describes one epoch file found in a checkpoint directory.
type FileInfo struct {
	Path  string
	Epoch uint64
}

// Scan lists the epoch files in dir, newest first. Non-epoch files are
// ignored. A missing directory scans as empty.
func Scan(dir string) ([]FileInfo, error) {
	return scanEpochs(dir)
}

func scanEpochs(dir string) ([]FileInfo, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, fmt.Errorf("ckpt: %w", err)
	}
	var out []FileInfo
	for _, ent := range ents {
		name := ent.Name()
		if ent.IsDir() || !strings.HasPrefix(name, "epoch-") || !strings.HasSuffix(name, ".ckpt") {
			continue
		}
		n, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, "epoch-"), ".ckpt"), 10, 64)
		if err != nil {
			continue
		}
		out = append(out, FileInfo{Path: filepath.Join(dir, name), Epoch: n})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Epoch > out[j].Epoch })
	return out, nil
}

// Load reads and decodes one epoch file.
func Load(path string) (*Snapshot, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("ckpt: %w", err)
	}
	return Decode(b)
}

// LoadInfo describes which epoch LoadLatest settled on.
type LoadInfo struct {
	Path  string
	Epoch uint64
	// Skipped counts newer epoch files that failed to load (torn or
	// corrupt) and were fallen past. Recovery surfaces it as the
	// saber.ckpt.corrupt counter.
	Skipped int
}

// LoadLatest returns the newest decodable epoch in dir, falling back
// past torn or corrupt files. ErrNoCheckpoint when none loads.
func LoadLatest(dir string) (*Snapshot, *LoadInfo, error) {
	epochs, err := scanEpochs(dir)
	if err != nil {
		return nil, nil, err
	}
	info := &LoadInfo{}
	for _, e := range epochs {
		s, err := Load(e.Path)
		if err != nil {
			info.Skipped++
			continue
		}
		info.Path = e.Path
		info.Epoch = e.Epoch
		return s, info, nil
	}
	return nil, info, fmt.Errorf("%w in %s (%d corrupt files skipped)", ErrNoCheckpoint, dir, info.Skipped)
}
