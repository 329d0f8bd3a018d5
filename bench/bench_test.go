package main

import (
	"math"
	"path/filepath"
	"sort"
	"testing"
	"time"
)

func TestQuartilesMatchPython(t *testing.T) {
	// Expected values from Python's statistics.quantiles(xs, n=4).
	for _, tc := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4}, 1.25, 2.5, 3.75},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3.5, 1.25, 9, 2}, 1.4375, 2.75, 7.625},
		{[]float64{7, 7}, 7, 7, 7},
		{[]float64{1, 2, 3}, 1, 2, 3},
		{[]float64{4}, 4, 4, 4},
	} {
		q1, q2, q3 := quartiles(tc.xs)
		if q1 != tc.q1 || q2 != tc.q2 || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", tc.xs, q1, q2, q3, tc.q1, tc.q2, tc.q3)
		}
	}
	if xs := []float64{3, 1, 2}; median(xs) != 2 || xs[0] != 3 {
		t.Errorf("median must not reorder its input: %v", xs)
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	for _, tc := range []struct{ p, want float64 }{
		{50, 500}, {90, 900}, {99, 990}, {99.9, 999}, {100, 1000}, {0.01, 1},
	} {
		if got := percentile(xs, tc.p); got != tc.want {
			t.Errorf("percentile(1..1000, %v) = %v, want %v", tc.p, got, tc.want)
		}
	}
	for _, tc := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{100000, 99.99, true}, {10000, 99.9, true}, {1000, 99, true}, {999, 90, true},
		{100, 90, true}, {20, 50, true}, {19, 0, false}, {0, 0, false},
	} {
		p, ok := tailPercentile(tc.n)
		if p != tc.want || ok != tc.ok {
			t.Errorf("tailPercentile(%d) = %v %v, want %v %v", tc.n, p, ok, tc.want, tc.ok)
		}
	}
}

func TestMannWhitney(t *testing.T) {
	seq := func(from, n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = float64(from + i)
		}
		return out
	}
	for _, tc := range []struct {
		name string
		a, b []float64
		want float64
	}{
		// U = 0 for 2+2 values: 1 of the 6 orderings, both tails.
		{"exact small", seq(1, 2), seq(3, 2), 2.0 / 6},
		{"exact separated", seq(1, 10), seq(11, 10), 2.0 / 184756},
		{"exact interleaved", []float64{1, 4}, []float64{2, 3}, 1},
		{"tied identical", []float64{5, 5, 5}, []float64{5, 5, 5}, 1},
	} {
		if got := mannWhitneyP(tc.a, tc.b); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("%s: p = %v, want %v", tc.name, got, tc.want)
		}
	}
	// With ties the normal approximation applies; separated samples must
	// still read as significant.
	if p := mannWhitneyP([]float64{1, 1, 2, 2, 3, 3, 4, 4, 5, 5}, []float64{9, 9, 10, 10, 11, 11, 12, 12, 13, 13}); p > 0.001 {
		t.Errorf("tied separated samples: p = %v, want < 0.001", p)
	}
}

func TestJudge(t *testing.T) {
	// spreadAround returns ten values around m whose interquartile range
	// is about 2% of m.
	spreadAround := func(m float64) []float64 {
		out := make([]float64, 10)
		for i := range out {
			out[i] = m * (1 + 0.005*float64(i-5))
		}
		return out
	}
	scale := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	parent := spreadAround(100)
	noisy := []float64{60, 140, 70, 130, 80, 120, 90, 110, 100, 100}
	for _, tc := range []struct {
		name     string
		a, b     []float64
		lower    bool
		bound    float64
		hasBound bool
		want     string
	}{
		{"same code", parent, parent, true, 0.1, true, unchanged},
		{"lower is better, 10% lower", parent, scale(parent, 0.9), true, 0.1, true, improved},
		{"higher is better, 10% higher", parent, scale(parent, 1.1), false, 0.1, true, improved},
		{"within the bound", parent, scale(parent, 1.05), true, 0.1, true, unchanged},
		{"beyond the bound", parent, scale(parent, 1.2), true, 0.1, true, worse},
		{"higher is better, 20% lower", parent, scale(parent, 0.8), false, 0.1, true, worse},
		{"spread over the bound", noisy, noisy, true, 0.1, true, unresolved},
		{"spread over the bound, every run better", noisy, scale(noisy, 0.1), true, 0.1, true, improved},
		{"no bound, consistently worse", parent, scale(parent, 1.2), true, 0, false, worse},
		{"no bound, small shift", parent, scale(parent, 1.001), true, 0, false, unchanged},
	} {
		if got := judge(tc.a, tc.b, tc.lower, tc.bound, tc.hasBound); got != tc.want {
			t.Errorf("%s: judge = %s, want %s", tc.name, got, tc.want)
		}
	}
	// Wins must reach 9 in 10 pairs: one lost pair of ten still improves,
	// two do not.
	a := spreadAround(100)
	b := scale(a, 0.8)
	b[0] = 200
	if got := judge(a, b, true, 0.1, true); got != improved {
		t.Errorf("9 of 10 pairs won: %s, want %s", got, improved)
	}
	b[1] = 200
	if got := judge(a, b, true, 0.1, true); got == improved {
		t.Errorf("8 of 10 pairs won: %s, want not %s", got, improved)
	}
}

// TestBenchmarkJSONMatchesCode keeps BENCHMARK.json and the metric tables
// the workloads report from drifting apart.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	def, err := loadBenchmark(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []jsonMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the code %d", kind, len(got), len(want))
		}
		for i := 0; i < min(len(got), len(want)); i++ {
			g := got[i]
			if g.Name != want[i].name || g.Unit != want[i].unit || (g.Better != "lower" && g.Better != "higher") || (g.Bound != nil) != bounded {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the code %+v", kind, i, g, want[i])
			}
		}
	}
	check("end_to_end", def.EndToEnd, endToEnd, true)
	check("per_layer", def.PerLayer, perLayer, false)
	if len(def.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the code %d", len(def.Workloads), len(workloads))
	}
	for i, w := range def.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json has %s, the code %s", i, w.Name, workloads[i].name)
		}
	}
}

// TestSmoke runs every workload briefly, untraced and traced, and checks
// that each reports exactly the metrics BENCHMARK.json lists for its
// mode, with their units, and correct outputs.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			cfg := runConfig{
				workload: w.name,
				seed:     3,
				measure:  400 * time.Millisecond,
				traced:   traced,
				workDir:  filepath.Join(t.TempDir(), "work"),
				spansDir: t.TempDir(),
			}
			res, err := runOne(cfg)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if !res.Correct || res.Attempted == 0 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", w.name, traced, res.Correct, res.Attempted, res.Failed)
			}
			var names []string
			for n := range res.Metrics {
				names = append(names, n)
			}
			sort.Strings(names)
			if len(names) != len(defs) {
				t.Errorf("%s traced=%v: %d metrics, want %d: %v", w.name, traced, len(names), len(defs), names)
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.name]
				if !ok || m.Unit != d.unit {
					t.Errorf("%s traced=%v: metric %s = %+v, want unit %s", w.name, traced, d.name, m, d.unit)
				}
				if !traced && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, d.name, m.Value)
				}
			}
		}
	}
}
