// Package benchgate holds the rules of the repository's performance
// gates. Allocation counts are deterministic, so allocation gates are
// ordinary tests (Allocs). Wall time is not: a wall-time gate is a
// BenchmarkGate* function that runs its workload in eleven rounds inside
// one process and judges the median round (Pair, Ceiling), so that one
// noisy round can neither fail nor pass it. A gate runs all its rounds
// on every call, whatever b.N is, so run the wall-time gates with
//
//	go test -run '^$' -bench '^BenchmarkGate' -benchtime 1x <package>
package benchgate

import (
	"runtime"
	"sort"
	"testing"
	"time"
)

// rounds is how many rounds a wall-time gate runs. It is odd, so the
// median is one round's value.
const rounds = 11

// median returns the middle of xs, or the mean of the middle two when
// the count is even. xs is not modified.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// Verdict returns the median of xs and whether it stays within limit.
func Verdict(xs []float64, limit float64) (float64, bool) {
	m := median(xs)
	return m, m <= limit
}

// Pair runs n operations of a and n of b in each of the rounds, the
// side that goes first flipping every round so that neither always
// runs first, and fails the gate when the median of the per-round b/a
// time ratios passes 1+tolerance. A negative tolerance demands a
// speed-up: -0.5 asks b to take at most half of a's time.
func Pair(gate *testing.B, n int, tolerance float64, a, b func()) {
	gate.Helper()
	ratios := make([]float64, rounds)
	for r := range ratios {
		var ta, tb float64
		if r%2 == 0 {
			ta = perOp(n, a)
			tb = perOp(n, b)
		} else {
			tb = perOp(n, b)
			ta = perOp(n, a)
		}
		ratios[r] = tb / ta
	}
	m, ok := Verdict(ratios, 1+tolerance)
	gate.ReportMetric(m, "median-ratio")
	if !ok {
		gate.Errorf("median B/A time ratio %.3f passes the tolerance %+.0f%% (rounds: %.3f)",
			m, tolerance*100, ratios)
	}
}

// Ceiling runs the rounds of n operations of op and fails the gate
// when the median round's time per operation passes max.
func Ceiling(gate *testing.B, n int, max time.Duration, op func()) {
	gate.Helper()
	ns := make([]float64, rounds)
	for r := range ns {
		ns[r] = perOp(n, op)
	}
	m, ok := Verdict(ns, float64(max))
	gate.ReportMetric(m, "median-ns/op")
	if !ok {
		gate.Errorf("median round %v/op passes the %v ceiling (rounds in ns/op: %.0f)",
			time.Duration(m), max, ns)
	}
}

// Allocs fails t when b allocates more than 1+tolerance times what a
// allocates per run, each measured by testing.AllocsPerRun over runs.
func Allocs(t *testing.T, runs int, tolerance float64, a, b func()) {
	t.Helper()
	na, nb := testing.AllocsPerRun(runs, a), testing.AllocsPerRun(runs, b)
	if ratio, ok := Verdict([]float64{nb / na}, 1+tolerance); !ok {
		t.Errorf("B makes %.0f allocs per run against A's %.0f: ratio %.3f passes the tolerance %+.0f%%",
			nb, na, ratio, tolerance*100)
	}
}

// perOp returns the mean nanoseconds of n calls of op, after a garbage
// collection so that one side's garbage is not collected on the other's
// clock (testing.B does the same before each run).
func perOp(n int, op func()) float64 {
	runtime.GC()
	start := time.Now()
	for i := 0; i < n; i++ {
		op()
	}
	return float64(time.Since(start).Nanoseconds()) / float64(n)
}
