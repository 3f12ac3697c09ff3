package overload

import (
	"testing"
	"time"
)

func TestParsePolicy(t *testing.T) {
	cases := []struct {
		in   string
		want Policy
		err  bool
	}{
		{"", ShedNone, false},
		{"none", ShedNone, false},
		{"oldest", ShedOldest, false},
		{"weighted", ShedWeighted, false},
		{"Oldest", ShedNone, true},
		{"drop", ShedNone, true},
	}
	for _, c := range cases {
		got, err := ParsePolicy(c.in)
		if (err != nil) != c.err || got != c.want {
			t.Errorf("ParsePolicy(%q) = %v, %v; want %v, err=%v", c.in, got, err, c.want, c.err)
		}
	}
	// Round trip: every policy's String parses back to itself.
	for _, p := range []Policy{ShedNone, ShedOldest, ShedWeighted} {
		got, err := ParsePolicy(p.String())
		if err != nil || got != p {
			t.Errorf("ParsePolicy(%v.String()) = %v, %v", p, got, err)
		}
	}
}

func TestEffectiveBudget(t *testing.T) {
	// Disabled budget stays disabled.
	if got := EffectiveBudget(0, 1<<20, 4096); got != 0 {
		t.Fatalf("EffectiveBudget(0,...) = %d, want 0", got)
	}
	// A generous budget passes through unchanged.
	if got := EffectiveBudget(64<<20, 1<<20, 4096); got != 64<<20 {
		t.Fatalf("generous budget clamped: %d", got)
	}
	// A budget below 2ϕ is floored at 2ϕ — the dispatcher needs a full ϕ
	// pending before it can cut a task, so a smaller cap would wedge.
	if got := EffectiveBudget(1024, 1<<20, 4096); got != 2<<20 {
		t.Fatalf("tiny budget not floored at 2phi: %d", got)
	}
	// The chunk being admitted always fits the budget.
	if got := EffectiveBudget(1024, 512, 1<<20); got != 1<<20 {
		t.Fatalf("budget below chunk: %d", got)
	}
}

func TestWithDefaults(t *testing.T) {
	c := Config{}.WithDefaults()
	if c.MaxWait <= 0 || c.DropProb <= 0 || c.DropProb > 1 {
		t.Fatalf("bad defaults: %+v", c)
	}
	if c.Weights[0] != 1 || c.Weights[1] != 1 {
		t.Fatalf("weights not defaulted: %+v", c.Weights)
	}
	if c.StallTimeout <= 0 {
		t.Fatalf("bad watchdog defaults: %+v", c)
	}
	if c.Seed == 0 {
		t.Fatal("seed not defaulted")
	}
	// Explicit values survive.
	c2 := Config{MaxWait: time.Second, DropProb: 0.25, Weights: [2]float64{2, 0.5}, Seed: 7}.WithDefaults()
	if c2.MaxWait != time.Second || c2.DropProb != 0.25 || c2.Weights != [2]float64{2, 0.5} || c2.Seed != 7 {
		t.Fatalf("explicit config clobbered: %+v", c2)
	}
}

func TestShedderDeterministicAndWeighted(t *testing.T) {
	cfg := Config{Policy: ShedWeighted, DropProb: 0.5, Weights: [2]float64{1, 0.1}, Seed: 42}.WithDefaults()
	a, b := NewShedder(cfg), NewShedder(cfg)
	const n = 4096
	drops := [2]int{}
	for i := 0; i < n; i++ {
		side := i & 1
		da, db := a.DropChunk(side), b.DropChunk(side)
		if da != db {
			t.Fatalf("same seed diverged at flip %d", i)
		}
		if da {
			drops[side]++
		}
	}
	// Side 0 drops at ~0.5, side 1 at ~0.05: the weighted source must
	// shed markedly more. Wide margins keep this seed-stable.
	if drops[0] < n/2*3/10 {
		t.Fatalf("heavy side dropped too little: %d/%d", drops[0], n/2)
	}
	if drops[1] > n/2*2/10 {
		t.Fatalf("light side dropped too much: %d/%d", drops[1], n/2)
	}
	if drops[1] >= drops[0] {
		t.Fatalf("weighting inverted: %v", drops)
	}
}

func TestShedderSaturatedProbability(t *testing.T) {
	cfg := Config{DropProb: 0.9, Weights: [2]float64{4, 1}}.WithDefaults()
	s := NewShedder(cfg)
	for i := 0; i < 64; i++ {
		if !s.DropChunk(0) {
			t.Fatal("p>=1 must always drop")
		}
	}
}
