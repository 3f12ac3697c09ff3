// Package fault is SABER's seeded, deterministic fault-injection
// facility. Subsystems that can fail in production — the GPGPU pipeline,
// plan execution on the CPU workers, ingest connections — consult an
// Injector at their failure points (Site constants); the injector decides
// per call, from a hash of (seed, site, per-site decision index), whether
// to inject a fault there. Decisions are independent of wall clock and of
// goroutine interleaving in aggregate: the k-th decision at a site always
// resolves the same way for a given seed, so a chaos run's fault volume
// and placement reproduce under the run's seed.
//
// All Injector methods are safe on a nil receiver (no fault is ever
// injected), so production call sites need no nil guards, and safe for
// concurrent use.
package fault

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Site names one injection point.
type Site string

// The engine's injection sites.
const (
	// GPUCopyIn fails a GPGPU task in the copy-in/DMA stage before any
	// bytes reach the device.
	GPUCopyIn Site = "gpu.copyin"
	// GPUKernel fails a GPGPU task in the execute stage (kernel fault).
	GPUKernel Site = "gpu.kernel"
	// GPUHang stalls the GPGPU execute stage for the armed Delay; the
	// task eventually completes, typically long after the engine's GPU
	// task timeout has failed it over to the CPU.
	GPUHang Site = "gpu.hang"
	// PlanExec fails a plan execution on a CPU worker.
	PlanExec Site = "plan.exec"
	// IngestDrop breaks an ingest client connection mid-frame: the
	// header and a truncated payload are written, then the connection is
	// closed, so the server discards the partial frame and the client
	// must resend on a fresh connection.
	IngestDrop Site = "ingest.drop"
	// IngestStall stalls an ingest client mid-frame for the armed Delay
	// (long enough to trip the server's read deadline), then abandons
	// the connection and reports the frame failed.
	IngestStall Site = "ingest.stall"
)

// Spec arms one site.
type Spec struct {
	// Rate is the injection probability per decision, in [0, 1].
	Rate float64
	// After skips the first After decisions at the site (lets a run warm
	// up before chaos starts).
	After int64
	// Limit caps the total number of injections at the site; 0 means
	// unlimited.
	Limit int64
	// Delay is the stall duration for hang/stall sites (GPUHang,
	// IngestStall); ignored elsewhere.
	Delay time.Duration
}

// Error tags an injected fault so recovery paths can distinguish chaos
// from organic failures in logs and telemetry.
type Error struct {
	Site Site
	Msg  string
}

// Error implements the error interface.
func (e *Error) Error() string { return fmt.Sprintf("fault[%s]: %s", e.Site, e.Msg) }

// Errorf builds a tagged injected-fault error.
func Errorf(site Site, format string, args ...any) error {
	return &Error{Site: site, Msg: fmt.Sprintf(format, args...)}
}

// Injected reports whether err is (or wraps) an injected fault.
func Injected(err error) bool {
	var fe *Error
	return errors.As(err, &fe)
}

// arm is one armed site's spec and counters.
type arm struct {
	spec      Spec
	decisions atomic.Int64
	injected  atomic.Int64
}

// Injector decides, deterministically from its seed, whether each
// consultation of an armed site injects a fault.
type Injector struct {
	seed int64
	mu   sync.RWMutex
	arms map[Site]*arm
}

// New creates an injector with no sites armed.
func New(seed int64) *Injector {
	return &Injector{seed: seed, arms: make(map[Site]*arm)}
}

// Arm arms (or re-arms) a site. Re-arming resets the site's counters.
func (in *Injector) Arm(site Site, spec Spec) {
	in.mu.Lock()
	in.arms[site] = &arm{spec: spec}
	in.mu.Unlock()
}

// Disarm removes a site; subsequent decisions there never inject.
func (in *Injector) Disarm(site Site) {
	in.mu.Lock()
	delete(in.arms, site)
	in.mu.Unlock()
}

func (in *Injector) arm(site Site) *arm {
	if in == nil {
		return nil
	}
	in.mu.RLock()
	a := in.arms[site]
	in.mu.RUnlock()
	return a
}

// Decide reports whether the caller should inject a fault at site now.
// The k-th decision at a site resolves identically for a given seed.
func (in *Injector) Decide(site Site) bool {
	a := in.arm(site)
	if a == nil || a.spec.Rate <= 0 {
		return false
	}
	n := a.decisions.Add(1) - 1
	if n < a.spec.After {
		return false
	}
	h := mix(uint64(in.seed) ^ siteHash(site) ^ uint64(n)*0x9e3779b97f4a7c15)
	if float64(h>>11)/(1<<53) >= a.spec.Rate {
		return false
	}
	// Claim one injection under the limit (CAS loop: concurrent deciders
	// must not overshoot).
	for {
		c := a.injected.Load()
		if a.spec.Limit > 0 && c >= a.spec.Limit {
			return false
		}
		if a.injected.CompareAndSwap(c, c+1) {
			return true
		}
	}
}

// Stall returns the armed Delay when a decision at site fires, else 0.
func (in *Injector) Stall(site Site) time.Duration {
	a := in.arm(site)
	if a == nil || a.spec.Delay <= 0 {
		return 0
	}
	if !in.Decide(site) {
		return 0
	}
	return a.spec.Delay
}

// Injections returns the number of faults injected at site so far.
func (in *Injector) Injections(site Site) int64 {
	a := in.arm(site)
	if a == nil {
		return 0
	}
	return a.injected.Load()
}

// Decisions returns the number of decisions taken at site so far.
func (in *Injector) Decisions(site Site) int64 {
	a := in.arm(site)
	if a == nil {
		return 0
	}
	return a.decisions.Load()
}

// TotalInjections sums injections across all armed sites.
func (in *Injector) TotalInjections() int64 {
	if in == nil {
		return 0
	}
	in.mu.RLock()
	defer in.mu.RUnlock()
	var total int64
	for _, a := range in.arms {
		total += a.injected.Load()
	}
	return total
}

// Snapshot returns the per-site injection counts (telemetry).
func (in *Injector) Snapshot() map[Site]int64 {
	if in == nil {
		return nil
	}
	in.mu.RLock()
	defer in.mu.RUnlock()
	out := make(map[Site]int64, len(in.arms))
	for s, a := range in.arms {
		out[s] = a.injected.Load()
	}
	return out
}

// siteHash is FNV-1a over the site name.
func siteHash(site Site) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(site); i++ {
		h ^= uint64(site[i])
		h *= 1099511628211
	}
	return h
}

// mix is the splitmix64 finaliser.
func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
