// Package bench regenerates every table and figure of the paper's
// evaluation (§6) against this reproduction: it builds the workloads,
// runs them through the engine (and the baseline engines), and prints the
// same rows/series the paper reports. Absolute numbers follow the
// calibrated model at the chosen time scale; the shapes — who wins, by
// what factor, where the crossovers sit — are the reproduction targets
// (see EXPERIMENTS.md).
package bench

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// Report is one experiment's regenerated table/series.
type Report struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
	// Failures names each condition of the experiment's gate that the run
	// missed; empty for experiments without a gate and for passing runs.
	Failures []string
}

// Print renders the report as an aligned text table.
func (r Report) Print(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", r.ID, r.Title)
	widths := make([]int, len(r.Header))
	for i, h := range r.Header {
		widths[i] = len(h)
	}
	for _, row := range r.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			if i < len(widths) {
				parts[i] = pad(c, widths[i])
			} else {
				parts[i] = c
			}
		}
		fmt.Fprintln(w, "  "+strings.Join(parts, "  "))
	}
	line(r.Header)
	sep := make([]string, len(r.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range r.Rows {
		line(row)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	for _, f := range r.Failures {
		fmt.Fprintf(w, "  FAIL: %s\n", f)
	}
	fmt.Fprintln(w)
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

// Experiment is a registered, runnable experiment.
type Experiment struct {
	ID    string
	Title string
	Run   func(Options) Report
}

var registry []Experiment

func register(id, title string, run func(Options) Report) {
	registry = append(registry, Experiment{ID: id, Title: title, Run: run})
}

// All returns the experiments in registration (paper) order.
func All() []Experiment {
	out := make([]Experiment, len(registry))
	copy(out, registry)
	return out
}

// Lookup finds an experiment by ID.
func Lookup(id string) (Experiment, bool) {
	for _, e := range registry {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// IDs returns the sorted experiment IDs.
func IDs() []string {
	ids := make([]string, 0, len(registry))
	for _, e := range registry {
		ids = append(ids, e.ID)
	}
	sort.Strings(ids)
	return ids
}

func f1(v float64) string { return fmt.Sprintf("%.1f", v) }
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }
func f3(v float64) string { return fmt.Sprintf("%.3f", v) }

func round2(v float64) float64 { return float64(int64(v*100+0.5)) / 100 }
