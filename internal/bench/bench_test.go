package bench

import (
	"encoding/json"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"
)

// tiny returns low-volume options for CI-speed smoke runs. Scale stays
// high enough that the model still dominates.
func tiny() Options { return Options{Scale: 8, MB: 4, Workers: 8} }

// skipShape skips timing-shape assertions under the race detector: its
// instrumentation slows compute by an order of magnitude, distorting the
// calibrated timing surface these tests assert on. Compile/registry
// tests still run under -race.
func skipShape(t *testing.T) {
	t.Helper()
	if raceEnabled {
		t.Skip("timing-shape assertions are not meaningful under -race")
	}
}

func cell(t *testing.T, rep Report, row, col int) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(rep.Rows[row][col], 64)
	if err != nil {
		t.Fatalf("%s row %d col %d = %q", rep.ID, row, col, rep.Rows[row][col])
	}
	return v
}

func TestRegistryComplete(t *testing.T) {
	want := []string{
		"fig01", "tab01", "fig07", "fig08", "fig09", "mdb",
		"fig10a", "fig10b", "fig11a", "fig11b", "fig12", "fig13",
		"fig14", "fig15", "fig16",
		"abl-lookahead", "abl-incremental", "abl-pipeline", "abl-dispatcher",
		"adaptive", "overload",
	}
	for _, id := range want {
		if _, ok := Lookup(id); !ok {
			t.Errorf("experiment %s not registered", id)
		}
	}
	if len(All()) != len(want) {
		t.Errorf("registry has %d entries, want %d", len(All()), len(want))
	}
	if len(IDs()) != len(want) {
		t.Errorf("IDs() = %d", len(IDs()))
	}
	if _, ok := Lookup("nope"); ok {
		t.Error("phantom experiment")
	}
}

// TestOverloadExperiment smoke-runs the overload experiment at reduced
// duration and checks the JSON twin's structure. It leaves the report's
// Failures alone: the timing-shape gate (goodput ratio, SLO) only holds
// at full length, and TestGates covers its logic.
func TestOverloadExperiment(t *testing.T) {
	oldPath, oldProbe, oldDur := overloadJSONPath, overloadCapacityProbe, overloadDuration
	overloadJSONPath = t.TempDir() + "/BENCH_overload.json"
	overloadCapacityProbe = 300 * time.Millisecond
	overloadDuration = 600 * time.Millisecond
	defer func() {
		overloadJSONPath, overloadCapacityProbe, overloadDuration = oldPath, oldProbe, oldDur
	}()
	rep := overloadExp(tiny())
	if len(rep.Rows) != 3 {
		t.Fatalf("rows = %d", len(rep.Rows))
	}
	buf, err := os.ReadFile(overloadJSONPath)
	if err != nil {
		t.Fatalf("JSON twin not written: %v", err)
	}
	var js overloadReport
	if err := json.Unmarshal(buf, &js); err != nil {
		t.Fatalf("JSON twin malformed: %v", err)
	}
	if js.CapacityGBps <= 0 || len(js.Runs) != 3 {
		t.Fatalf("JSON twin content: capacity %g, %d runs", js.CapacityGBps, len(js.Runs))
	}
	if js.Gate.Policy != "oldest" {
		t.Fatalf("gate run = %q, want oldest", js.Gate.Policy)
	}
	for _, r := range js.Runs {
		if r.Stalls != 0 {
			t.Errorf("%s: watchdog counted %d stalls", r.Policy, r.Stalls)
		}
	}
	if _, ok := js.Metrics.Counters["saber.overload.q0.bytes.offered"]; !ok {
		t.Error("snapshot missing saber.overload admission ledger")
	}
	if raceEnabled {
		return // shed/latency shapes are not meaningful under instrumentation
	}
	for _, r := range js.Runs[1:] {
		if r.ShedFrac <= 0 {
			t.Errorf("%s: 2x-capacity feed shed nothing", r.Policy)
		}
	}
}

func TestReportPrint(t *testing.T) {
	rep := Report{ID: "x", Title: "t", Header: []string{"a", "bb"}, Rows: [][]string{{"1", "2"}},
		Notes: []string{"n"}, Failures: []string{"gate missed"}}
	var buf strings.Builder
	rep.Print(&buf)
	if !strings.Contains(buf.String(), "FAIL: gate missed") {
		t.Errorf("failure not printed:\n%s", buf.String())
	}
}

// TestGates feeds hand-built reports to the adaptive and overload gates:
// a passing report yields no failures, and breaking one condition yields
// exactly one failure naming it.
func TestGates(t *testing.T) {
	adaptOK := func() adaptReport {
		return adaptReport{
			SLOMs:             12,
			AdaptiveVsBestPct: 95,
			Adaptive:          adaptRun{P99Ms: 8, MeetsSLO: true, PhiStart: 1 << 20, PhiFinal: 64 << 10, Shrinks: 4},
		}
	}
	overloadOK := func() overloadReport {
		runs := []overloadRun{
			{Policy: "blocking", GoodputVsCapacityPct: 100, P99Ms: 400},
			{Policy: "oldest", GoodputVsCapacityPct: 92, ShedFrac: 0.4, P99Ms: 10, MeetsSLO: true},
			{Policy: "weighted", GoodputVsCapacityPct: 90, ShedFrac: 0.45, P99Ms: 12, MeetsSLO: true},
		}
		return overloadReport{SLOMs: 25, Runs: runs, Gate: runs[1]}
	}
	cases := []struct {
		name string
		fail func() []string
		want string // substring of the single failure; "" expects none
	}{
		{"adaptive pass", func() []string { return adaptGate(adaptOK()) }, ""},
		{"adaptive SLO miss", func() []string {
			r := adaptOK()
			r.Adaptive.MeetsSLO, r.Adaptive.P99Ms = false, 15
			return adaptGate(r)
		}, "SLO"},
		{"adaptive below best fixed", func() []string {
			r := adaptOK()
			r.AdaptiveVsBestPct = 89.9
			return adaptGate(r)
		}, "best fixed"},
		{"adaptive inert", func() []string {
			r := adaptOK()
			r.Adaptive.Shrinks = 0
			return adaptGate(r)
		}, "never resized"},
		{"overload pass", func() []string { return overloadGate(overloadOK()) }, ""},
		{"overload goodput", func() []string {
			r := overloadOK()
			r.Gate.GoodputVsCapacityPct = 79.9
			return overloadGate(r)
		}, "goodput"},
		{"overload no shed", func() []string {
			r := overloadOK()
			r.Gate.ShedFrac = 0
			return overloadGate(r)
		}, "shed nothing"},
		{"overload p99", func() []string {
			r := overloadOK()
			r.Gate.MeetsSLO, r.Gate.P99Ms = false, 30
			return overloadGate(r)
		}, "SLO"},
		{"overload stall", func() []string {
			r := overloadOK()
			r.Runs[0].Stalls = 1
			return overloadGate(r)
		}, "blocking run tripped the stall watchdog"},
	}
	for _, c := range cases {
		fails := c.fail()
		switch {
		case c.want == "" && len(fails) != 0:
			t.Errorf("%s: unexpected failures %q", c.name, fails)
		case c.want != "" && (len(fails) != 1 || !strings.Contains(fails[0], c.want)):
			t.Errorf("%s: failures %q, want exactly one naming %q", c.name, fails, c.want)
		}
	}
}

func TestTab01AllQueriesCompile(t *testing.T) {
	rep := tab01(tiny())
	if len(rep.Rows) < 14 {
		t.Fatalf("rows = %d", len(rep.Rows))
	}
	for _, row := range rep.Rows {
		if len(row[4]) > 7 && row[4][:7] == "COMPILE" {
			t.Errorf("%s/%s failed to compile: %s", row[0], row[1], row[4])
		}
	}
}

func TestFig01SlideCoupling(t *testing.T) {
	skipShape(t)
	o := tiny()
	rep := fig01(o)
	first := cell(t, rep, 0, 1)
	last := cell(t, rep, len(rep.Rows)-1, 1)
	if first >= last {
		t.Fatalf("micro-batch throughput must rise with slide: %g vs %g", first, last)
	}
}

func TestFig10aCrossoverShape(t *testing.T) {
	skipShape(t)
	o := Options{Scale: 20, MB: 8, Workers: 15}
	rep := fig10a(o)
	n := len(rep.Rows)
	cpuFirst, cpuLast := cell(t, rep, 0, 1), cell(t, rep, n-1, 1)
	gpuFirst, gpuLast := cell(t, rep, 0, 2), cell(t, rep, n-1, 2)
	if cpuFirst <= cpuLast*2 {
		t.Errorf("CPU should collapse with predicates: %g → %g", cpuFirst, cpuLast)
	}
	if gpuLast < gpuFirst*0.5 {
		t.Errorf("GPGPU should stay near-flat: %g → %g", gpuFirst, gpuLast)
	}
	if cpuFirst <= gpuFirst {
		t.Errorf("CPU should win at n=1: %g vs %g", cpuFirst, gpuFirst)
	}
	if gpuLast <= cpuLast {
		t.Errorf("GPGPU should win at n=64: %g vs %g", gpuLast, cpuLast)
	}
}

func TestFig13WindowIndependence(t *testing.T) {
	skipShape(t)
	o := Options{Scale: 20, MB: 16, Workers: 15}
	rep := fig13(o)
	// Only the rows with >=16 tasks per run are statistically stable.
	rep.Rows = rep.Rows[:2]
	for r := range rep.Rows {
		a, b, c := cell(t, rep, r, 1), cell(t, rep, r, 2), cell(t, rep, r, 3)
		lo, hi := a, a
		for _, v := range []float64{b, c} {
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		if hi > lo*1.6 {
			t.Errorf("row %d: window definitions diverge: %g %g %g", r, a, b, c)
		}
	}
}

func TestFig14Scaling(t *testing.T) {
	skipShape(t)
	o := Options{Scale: 20, MB: 4}
	rep := fig14(o)
	w1 := cell(t, rep, 0, 1)
	w8 := cell(t, rep, 3, 1)
	if w8 < w1*3 {
		t.Errorf("worker scaling too weak: 1→%g, 8→%g", w1, w8)
	}
}

func TestAblIncrementalSpeedup(t *testing.T) {
	skipShape(t)
	rep := ablIncremental(tiny())
	last := len(rep.Rows) - 1
	if sp := cell(t, rep, last, 3); sp < 1.5 {
		t.Errorf("incremental speedup at smallest slide = %g", sp)
	}
	if f, l := cell(t, rep, 0, 3), cell(t, rep, last, 3); l < f {
		t.Errorf("speedup should grow with overlap: %g → %g", f, l)
	}
}

func TestAblPipelineOverlap(t *testing.T) {
	skipShape(t)
	rep := ablPipeline(tiny())
	d1, d4 := cell(t, rep, 0, 1), cell(t, rep, 1, 1)
	if d4*1.5 > d1 {
		t.Errorf("pipelining gains too small: depth1=%gms depth4=%gms", d1, d4)
	}
}

func TestAblDispatcherBudget(t *testing.T) {
	skipShape(t)
	rep := ablDispatcher(tiny())
	if len(rep.Rows) != 3 {
		t.Fatalf("rows = %d", len(rep.Rows))
	}
	// The smallest slide (most windows) must cost the most.
	if cell(t, rep, 2, 1) < cell(t, rep, 0, 1) {
		t.Error("boundary cost should grow as the slide shrinks")
	}
}

func TestFig16SharesTrackSelectivity(t *testing.T) {
	skipShape(t)
	o := Options{Scale: 20, MB: 12, Workers: 15}
	// As with fig15, a contended run (parallel test packages) can distort
	// the share attribution, so allow a single retry before failing.
	for attempt := 0; ; attempt++ {
		rep := fig16(o)
		if len(rep.Rows) != 6 {
			t.Fatalf("segments = %d", len(rep.Rows))
		}
		// Adaptation shows as: near-zero GPGPU share before the first surge,
		// and a substantial share at or after some surge. Exact per-segment
		// attribution lags (see the experiment's note), so the assertion
		// checks the response exists rather than its precise segment.
		first := cell(t, rep, 0, 3)
		maxShare := 0.0
		for r := 1; r < 6; r++ {
			if sh := cell(t, rep, r, 3); sh > maxShare {
				maxShare = sh
			}
		}
		if first <= 0.15 && maxShare >= 0.2 {
			return
		}
		if attempt == 1 {
			if first > 0.15 {
				t.Errorf("GPU share before any surge = %g, want ~0", first)
			}
			if maxShare < 0.2 {
				t.Errorf("no GPGPU response to surges: max share %g", maxShare)
			}
			return
		}
	}
}

func TestFig15PolicyOrdering(t *testing.T) {
	skipShape(t)
	o := Options{Scale: 20, MB: 16, Workers: 15}
	// The W1 fcfs-vs-hls margin is ~5-20% run to run; one contended run
	// (other test packages sharing the host) can flip the strict
	// ordering, so allow a single retry before declaring the shape lost.
	for attempt := 0; ; attempt++ {
		rep := fig15(o)
		fcfs, hls := cell(t, rep, 0, 1), cell(t, rep, 0, 3)
		staticW2, hlsW2 := cell(t, rep, 1, 2), cell(t, rep, 1, 3)
		if fcfs < hls && staticW2 < hlsW2*1.05 {
			return
		}
		if attempt == 1 {
			if !(fcfs < hls) {
				t.Errorf("W1: fcfs %g should trail hls %g", fcfs, hls)
			}
			if !(staticW2 < hlsW2*1.05) {
				t.Errorf("W2: static %g should not beat hls %g", staticW2, hlsW2)
			}
			return
		}
	}
}

func TestMdbRatios(t *testing.T) {
	skipShape(t)
	rep := mdb(tiny())
	selectStar := cell(t, rep, 1, 2)
	twoCols := cell(t, rep, 0, 2)
	equi := cell(t, rep, 2, 2)
	if selectStar <= twoCols {
		t.Errorf("select-* should cost more than two columns: %g vs %g", selectStar, twoCols)
	}
	if equi >= twoCols {
		t.Errorf("equi-join should be far cheaper: %g vs %g", equi, twoCols)
	}
}
