package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
)

// runSeconds is BENCHMARK.json's run_seconds: how long one run measures.
const runSeconds = 16

// set is one full pass: every workload's end-to-end and per-layer results.
// Each workload ran in its own child process, so that it has a fresh heap
// and its own resident-set high-water mark.
type set map[string]map[string]metric

// child runs one workload in one mode in a child process of this binary and
// parses the result line.
func child(exe, workload string, seed int64, seconds float64, traced int) (result, error) {
	cmd := exec.Command(exe,
		"-workload", workload,
		"-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64),
		"-trace", strconv.Itoa(traced))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return result{}, fmt.Errorf("%s: %w", workload, err)
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return result{}, fmt.Errorf("%s: result line: %w", workload, err)
	}
	return res, nil
}

func runSet(exe string, seed int64, seconds float64) (set, bool) {
	s, ok := set{}, true
	for _, sp := range workloads {
		s[sp.name] = map[string]metric{}
		for traced := 0; traced <= 1; traced++ {
			res, err := child(exe, sp.name, seed, seconds, traced)
			if err != nil {
				fmt.Fprintln(os.Stderr, "benchmark:", err)
				ok = false
				continue
			}
			if !res.Correct || res.Failed != 0 {
				fmt.Fprintf(os.Stderr, "benchmark: %s: %d of %d tuples failed\n", sp.name, res.Failed, res.Attempted)
				ok = false
			}
			for k, v := range res.Metrics {
				s[sp.name][k] = v
			}
		}
	}
	return s, ok
}

// printSet prints every metric of every workload by name with its unit: the
// end-to-end metrics per workload, then the layer table with one column per
// workload.
func printSet(s set) {
	fmt.Printf("host: %d CPUs, %s, %s/%s\n\n", runtime.NumCPU(), runtime.Version(), runtime.GOOS, runtime.GOARCH)
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		fmt.Printf("%-30s %-9s", "metric", "unit")
		for _, sp := range workloads {
			fmt.Printf(" %12s", sp.name)
		}
		fmt.Println()
		for _, d := range defs {
			fmt.Printf("%-30s %-9s", d.name, d.unit)
			for _, sp := range workloads {
				fmt.Printf(" %12.4g", s[sp.name][d.name].Value)
			}
			fmt.Println()
		}
		fmt.Println()
	}
}

// worse is by what share of a the value b is worse than a, given the
// metric's direction; negative when b is better.
func worse(d metricDef, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if d.better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// runAll is the default invocation: every workload, both modes, printed and
// written to out/results.json. With aa it runs two sets back to back and
// holds every end-to-end metric of the second against the first and the
// metric's bound.
func runAll(seed int64, seconds float64, aa bool, jsonPath string) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	code := 0
	first, ok := runSet(exe, seed, seconds)
	if !ok {
		code = 1
	}
	printSet(first)
	sets := []set{first}
	if aa {
		second, ok := runSet(exe, seed, seconds)
		if !ok {
			code = 1
		}
		sets = append(sets, second)
		fmt.Printf("%-12s %-18s %12s %12s %8s %6s\n", "workload", "metric", "first", "second", "worse", "bound")
		for _, sp := range workloads {
			for _, d := range endToEnd {
				a, b := first[sp.name][d.name].Value, second[sp.name][d.name].Value
				w := worse(d, a, b)
				verdict := ""
				// Same code on both sides, so either direction out of
				// bounds means the benchmark is not steady.
				if w > d.bound || -w > d.bound {
					verdict = "  OUT OF BOUNDS"
					code = 1
				}
				fmt.Printf("%-12s %-18s %12.4f %12.4f %+7.1f%% %5.0f%%%s\n", sp.name, d.name, a, b, 100*w, 100*d.bound, verdict)
			}
		}
	}
	paths := []string{filepath.Join(outDir, "results.json")}
	if jsonPath != "" {
		paths = append(paths, jsonPath)
	}
	data, err := json.MarshalIndent(sets, "", " ")
	if err == nil {
		err = os.MkdirAll(outDir, 0o755)
	}
	for _, p := range paths {
		if err == nil {
			err = os.WriteFile(p, append(data, '\n'), 0o644)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	return code
}

// benchmarkJSON is the repo's BENCHMARK.json as this program defines it.
func benchmarkJSON() []byte {
	type workloadJSON struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2eJSON struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layerJSON struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string       `json:"command"`
		Paths      []string       `json:"paths"`
		RunSeconds int            `json:"run_seconds"`
		Workloads  []workloadJSON `json:"workloads"`
		EndToEnd   []e2eJSON      `json:"end_to_end"`
		PerLayer   []layerJSON    `json:"per_layer"`
	}{
		Command:    []string{"go", "run", "-C", "benchmark", "."},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
	}
	for _, sp := range workloads {
		doc.Workloads = append(doc.Workloads, workloadJSON{sp.name, sp.why})
	}
	for _, d := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, e2eJSON{d.name, d.unit, d.better, d.bound})
	}
	for _, d := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layerJSON{d.name, d.unit, d.better})
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		panic(err) // the document is made of strings and numbers
	}
	return append(data, '\n')
}

func printSpec() { os.Stdout.Write(benchmarkJSON()) }
