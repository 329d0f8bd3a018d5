package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// median returns the middle of xs (the mean of the middle two when the
// count is even), or 0 for no values. xs is not modified.
func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}

// quartiles returns the three cut points of xs the way Python's
// statistics.quantiles(xs, n=4) computes them (its default "exclusive"
// method), so the spreads reported here match that reference. xs is not
// modified.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	switch len(xs) {
	case 0:
		return 0, 0, 0
	case 1:
		return xs[0], xs[0], xs[0]
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	m := n + 1
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}

// percentile returns the nearest-rank p-th percentile of sorted, or 0 for
// no values.
func percentile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	r := rank(n, p)
	if r < 1 {
		r = 1
	}
	return sorted[r-1]
}

// rank is the 1-based nearest-rank position of percentile p among n
// values, computed in basis points so that 99.9 is exact.
func rank(n int, p float64) int {
	bp := int(math.Round(p * 100))
	return (bp*n + 9999) / 10000
}

// tailPercentile returns the highest of the usual reporting percentiles
// that has at least ten of n samples beyond it; ok is false when even the
// median has fewer.
func tailPercentile(n int) (p float64, ok bool) {
	for _, p := range []float64{99.99, 99.9, 99, 90, 50} {
		if n-rank(n, p) >= 10 {
			return p, true
		}
	}
	return 0, false
}

// mannWhitneyP returns the two-sided p-value of the Mann–Whitney U test
// that a and b come from the same distribution: exact when there are no
// ties and both samples are small, else the normal approximation with tie
// and continuity correction.
func mannWhitneyP(a, b []float64) float64 {
	n1, n2 := len(a), len(b)
	if n1 == 0 || n2 == 0 {
		return 1
	}
	type obs struct {
		v     float64
		fromA bool
	}
	all := make([]obs, 0, n1+n2)
	for _, v := range a {
		all = append(all, obs{v, true})
	}
	for _, v := range b {
		all = append(all, obs{v, false})
	}
	sort.Slice(all, func(i, j int) bool { return all[i].v < all[j].v })
	var r1, ties float64
	for i := 0; i < len(all); {
		j := i
		for j < len(all) && all[j].v == all[i].v {
			j++
		}
		avg := float64(i+j+1) / 2 // ranks i+1..j share their mean
		for k := i; k < j; k++ {
			if all[k].fromA {
				r1 += avg
			}
		}
		t := float64(j - i)
		ties += t*t*t - t
		i = j
	}
	u := r1 - float64(n1*(n1+1))/2
	if ties == 0 && n1 <= 25 && n2 <= 25 {
		counts := uCounts(n1, n2)
		var lo, hi, total float64
		for k, c := range counts {
			total += c
			if float64(k) <= u {
				lo += c
			}
			if float64(k) >= u {
				hi += c
			}
		}
		return math.Min(1, 2*math.Min(lo, hi)/total)
	}
	n := float64(n1 + n2)
	sigma := math.Sqrt(float64(n1*n2) / 12 * ((n + 1) - ties/(n*(n-1))))
	if sigma == 0 {
		return 1
	}
	z := math.Max(0, math.Abs(u-float64(n1*n2)/2)-0.5) / sigma
	return math.Erfc(z / math.Sqrt2)
}

// uCounts returns, for samples of n1 and n2 distinct values, how many of
// the orderings give each value of U (the count of pairs where the first
// sample's value is larger).
func uCounts(n1, n2 int) []float64 {
	// c[i][j][u]: orderings of i first-sample and j second-sample values
	// with U = u. The largest value either comes from the first sample,
	// beating all j others, or from the second, beating none.
	c := make([][][]float64, n1+1)
	for i := range c {
		c[i] = make([][]float64, n2+1)
		for j := range c[i] {
			c[i][j] = make([]float64, i*j+1)
			if i == 0 || j == 0 {
				c[i][j][0] = 1
				continue
			}
			for u := range c[i][j] {
				if u >= j && u-j < len(c[i-1][j]) {
					c[i][j][u] += c[i-1][j][u-j]
				}
				if u < len(c[i][j-1]) {
					c[i][j][u] += c[i][j-1][u]
				}
			}
		}
	}
	return c[n1][n2]
}

// Verdicts of -compare.
const (
	improved   = "improved"
	unchanged  = "unchanged"
	worse      = "worse"
	unresolved = "unresolved"
)

// judge compares a metric's parent runs a with the change's runs b.
//   - unresolved: the parent's spread (interquartile range over median)
//     exceeds the metric's bound, unless every change run beats every
//     parent run.
//   - improved: the change wins at least 9 of 10 pairs (a[i] against b[i],
//     ties counting for neither) and its median beats the parent's by more
//     than the parent's interquartile range.
//   - worse: the change's median is worse than the parent's by more than
//     the bound; for a metric without a bound, the improved rule mirrored.
func judge(a, b []float64, lower bool, bound float64, hasBound bool) string {
	better := func(x, y float64) bool {
		if lower {
			return x < y
		}
		return x > y
	}
	ma, mb := median(a), median(b)
	q1, _, q3 := quartiles(a)
	iqr := q3 - q1
	gain := mb - ma // positive when the change is better
	if lower {
		gain = -gain
	}
	pairs := min(len(a), len(b))
	wins, losses := 0, 0
	for i := 0; i < pairs; i++ {
		switch {
		case better(b[i], a[i]):
			wins++
		case better(a[i], b[i]):
			losses++
		}
	}
	allBetter := len(a) > 0 && len(b) > 0
	for _, x := range b {
		for _, y := range a {
			if !better(x, y) {
				allBetter = false
			}
		}
	}
	if hasBound && ma != 0 && iqr/math.Abs(ma) > bound && !allBetter {
		return unresolved
	}
	if pairs > 0 && wins*10 >= pairs*9 && gain > iqr {
		return improved
	}
	if hasBound {
		if -gain > bound*math.Abs(ma) {
			return worse
		}
	} else if pairs > 0 && losses*10 >= pairs*9 && -gain > iqr {
		return worse
	}
	return unchanged
}

// benchmarkDef is the part of BENCHMARK.json the benchmark reads.
type benchmarkDef struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []jsonMetric `json:"end_to_end"`
	PerLayer []jsonMetric `json:"per_layer"`
}

type jsonMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func loadBenchmark(path string) (*benchmarkDef, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var def benchmarkDef
	if err := json.Unmarshal(data, &def); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &def, nil
}

// runFile is one result written with --out.
type runFile struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    int    `json:"trace"`
	result
}

// loadRuns reads the result files matching pattern, grouped by workload
// and in seed order.
func loadRuns(pattern string) (map[string][]runFile, error) {
	paths, err := filepath.Glob(pattern)
	if err != nil {
		return nil, err
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("no result files match %q", pattern)
	}
	out := map[string][]runFile{}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var rf runFile
		if err := json.Unmarshal(data, &rf); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		out[rf.Workload] = append(out[rf.Workload], rf)
	}
	for _, runs := range out {
		sort.SliceStable(runs, func(i, j int) bool { return runs[i].Seed < runs[j].Seed })
	}
	return out, nil
}

// compareRuns prints one verdict per (workload, metric) for parent runs a
// and change runs b, using each metric's direction and bound from def.
// It returns how many rows read "worse".
func compareRuns(w io.Writer, def *benchmarkDef, a, b map[string][]runFile) int {
	var wl []string
	for name := range a {
		if _, ok := b[name]; ok {
			wl = append(wl, name)
		}
	}
	sort.Strings(wl)
	metrics := append(append([]jsonMetric(nil), def.EndToEnd...), def.PerLayer...)
	fmt.Fprintf(w, "%-14s %-26s %3s %26s %26s %8s %7s  %s\n",
		"workload", "metric", "n", "parent median [q1,q3]", "change median [q1,q3]", "delta", "p", "verdict")
	nWorse := 0
	for _, name := range wl {
		for _, m := range metrics {
			va, vb := values(a[name], m.Name), values(b[name], m.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			bound := 0.0
			if m.Bound != nil {
				bound = *m.Bound
			}
			v := judge(va, vb, m.Better == "lower", bound, m.Bound != nil)
			if v == worse {
				nWorse++
			}
			a1, am, a3 := quartiles(va)
			b1, bm, b3 := quartiles(vb)
			delta := "n/a"
			if am != 0 {
				delta = fmt.Sprintf("%+.1f%%", 100*(bm-am)/math.Abs(am))
			}
			fmt.Fprintf(w, "%-14s %-26s %3d %26s %26s %8s %7.3f  %s\n", name, m.Name, min(len(va), len(vb)),
				spread(am, a1, a3), spread(bm, b1, b3), delta, mannWhitneyP(va, vb), v)
		}
	}
	return nWorse
}

func values(runs []runFile, metric string) []float64 {
	var out []float64
	for _, r := range runs {
		if v, ok := r.Metrics[metric]; ok {
			out = append(out, v.Value)
		}
	}
	return out
}

func spread(m, q1, q3 float64) string {
	return strings.TrimSpace(fmt.Sprintf("%.4g [%.4g,%.4g]", m, q1, q3))
}
