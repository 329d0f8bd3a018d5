package telemetry

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("hits")
	c.Inc()
	c.Add(4)
	if got := c.Load(); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
	if r.Counter("hits") != c {
		t.Error("re-registration returned a different counter")
	}
	g := r.Gauge("entries")
	g.Set(7)
	g.Add(-2)
	if got := g.Load(); got != 5 {
		t.Errorf("gauge = %d, want 5", got)
	}
}

// cumAt returns the cumulative count at an exact bucket bound.
func cumAt(t *testing.T, s HistogramSnapshot, bound uint64) uint64 {
	t.Helper()
	for i, b := range s.Bounds {
		if b == bound {
			return s.Cumulative[i]
		}
	}
	t.Fatalf("%d is not a bucket bound of %v", bound, s.Bounds)
	return 0
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_us")
	for _, us := range []uint64{10, 999, 1000, 1001, 50_000, 2_000_000, 20_000_000} {
		h.Observe(us)
	}
	s := r.Snapshot().Histograms["lat_us"]
	if s.Count != 7 || s.Cumulative[len(s.Cumulative)-1] != 7 {
		t.Fatalf("count = %d, cumulative %v", s.Count, s.Cumulative)
	}
	// The Fig. 17 bounds read straight off the layout: <=1ms -> 3 (10,
	// 999, 1000); <=10ms -> 4; <=100ms -> 5; <=10s -> 6; +Inf -> 7.
	for bound, want := range map[uint64]uint64{10: 1, 1000: 3, 10_000: 4, 100_000: 5, 10_000_000: 6} {
		if got := cumAt(t, s, bound); got != want {
			t.Errorf("le=%d: %d, want %d", bound, got, want)
		}
	}
	if s.Sum != 10+999+1000+1001+50_000+2_000_000+20_000_000 {
		t.Errorf("sum = %d", s.Sum)
	}
}

// TestLatencyBucketsLayout pins the shared layout: 1-2-5 per decade from
// 10us to 10s, containing the Fig. 17 bounds and both binaries' default
// SLO thresholds, and that no copy handed out can change it.
func TestLatencyBucketsLayout(t *testing.T) {
	b := LatencyBuckets()
	if b[0] != 10 || b[len(b)-1] != 10_000_000 || len(b) != 19 {
		t.Fatalf("LatencyBuckets = %v, want 19 bounds from 10us to 10s", b)
	}
	for i := 1; i < len(b); i++ {
		// 1 -> 2 and 5 -> 10 double; 2 -> 5 is the 2.5x step.
		if r := float64(b[i]) / float64(b[i-1]); r != 2 && r != 2.5 {
			t.Errorf("step %d -> %d is not 1-2-5", b[i-1], b[i])
		}
	}
	for _, want := range []uint64{1_000, 10_000, 100_000, 500_000} {
		if !slices.Contains(b, want) {
			t.Errorf("layout lacks bound %d", want)
		}
	}
	b[0] = 7
	NewRegistry().Histogram("h").Snapshot().Bounds[1] = 7
	if got := NewRegistry().Histogram("h").Snapshot().Bounds; got[0] != 10 || got[1] != 20 {
		t.Fatalf("writes through handed-out bounds reached the layout: %v", got)
	}
}

// lognormalStream draws n seeded log-normal microsecond latencies.
func lognormalStream(seed int64, medianUS, sigma float64, n int) []uint64 {
	rng := rand.New(rand.NewSource(seed))
	vals := make([]uint64, n)
	for i := range vals {
		vals[i] = uint64(math.Exp(math.Log(medianUS) + sigma*rng.NormFloat64()))
	}
	return vals
}

// TestHistogramQuantileAccuracy measures the bucket readers against the
// exact answers on three seeded log-normal streams of 100k samples:
// CountAtOrBelow is exact at a bucket bound (100ms, 500ms) and off by at
// most the straddling bucket's count between bounds (3ms); Quantile
// always lands inside the bucket that holds the true quantile.
func TestHistogramQuantileAccuracy(t *testing.T) {
	streams := []struct {
		name     string
		seed     int64
		medianUS float64
		sigma    float64
	}{
		{"fast", 1, 1_000, 1.5},
		{"mid", 2, 10_000, 1.5},
		{"slow", 3, 100_000, 1.0},
	}
	for _, st := range streams {
		vals := lognormalStream(st.seed, st.medianUS, st.sigma, 100_000)
		h := NewRegistry().Histogram("lat_us")
		for _, v := range vals {
			h.Observe(v)
		}
		s := h.Snapshot()
		sorted := slices.Clone(vals)
		slices.Sort(sorted)
		for _, th := range []uint64{100_000, 500_000, 3_000} {
			exact := float64(sort.Search(len(sorted), func(i int) bool { return sorted[i] > th }))
			got := s.CountAtOrBelow(float64(th))
			i := bucketOf(th)
			straddle := s.Cumulative[i]
			if i > 0 {
				straddle -= s.Cumulative[i-1]
			}
			atBound := latencyBuckets[i] == th
			switch {
			case atBound && got != exact:
				t.Errorf("%s le=%d: CountAtOrBelow = %v, want exactly %v", st.name, th, got, exact)
			case !atBound && math.Abs(got-exact) > float64(straddle):
				t.Errorf("%s t=%d: CountAtOrBelow = %v, exact %v, off by more than the straddling bucket (%d)",
					st.name, th, got, exact, straddle)
			}
		}
		for _, q := range []float64{0.5, 0.9, 0.95, 0.99} {
			truth := sorted[int(math.Ceil(q*float64(len(sorted))))-1]
			i := bucketOf(truth)
			lo, hi := 0.0, math.Inf(1)
			if i > 0 {
				lo = float64(latencyBuckets[i-1])
			}
			if i < len(latencyBuckets) {
				hi = float64(latencyBuckets[i])
			}
			if got := s.Quantile(q); got < lo || got > hi {
				t.Errorf("%s q=%v: Quantile = %v, true %d lies in bucket (%v, %v]", st.name, q, got, truth, lo, hi)
			}
		}
	}
}

// TestHistogramReadersEdges covers the degenerate inputs of the bucket
// readers: an empty histogram, a threshold past the last finite bound,
// and quantiles that fall in the +Inf bucket.
func TestHistogramReadersEdges(t *testing.T) {
	h := NewRegistry().Histogram("lat_us")
	if s := h.Snapshot(); s.Quantile(0.95) != 0 || s.CountAtOrBelow(1000) != 0 {
		t.Fatalf("empty histogram: q95 = %v, count<=1ms = %v", s.Quantile(0.95), s.CountAtOrBelow(1000))
	}
	h.Observe(100)
	h.Observe(20_000_000)
	s := h.Snapshot()
	if got := s.CountAtOrBelow(1e12); got != 1 {
		t.Errorf("past the last bound: %v, want 1 (only what the bounds vouch for)", got)
	}
	if got := s.Quantile(0.99); got != 10_000_000 {
		t.Errorf("+Inf-bucket quantile = %v, want the last finite bound", got)
	}
	if got := s.Quantile(0.5); got < 50 || got > 100 {
		t.Errorf("median = %v, want inside (50, 100]", got)
	}
}

func TestObserveDuration(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("d_us")
	h.ObserveDuration(3 * time.Millisecond)
	h.ObserveDuration(-time.Second) // clamped to zero
	s := r.Snapshot().Histograms["d_us"]
	if s.Count != 2 || s.Sum != 3000 {
		t.Errorf("count=%d sum=%d, want 2/3000", s.Count, s.Sum)
	}
}

func TestExposition(t *testing.T) {
	r := NewRegistry()
	r.Counter("z_total").Add(3)
	r.Gauge("a_entries").Set(2)
	r.Histogram("m_us").Observe(50)
	out := r.Snapshot().String()
	for _, want := range []string{
		"# TYPE a_entries gauge\na_entries 2\n",
		"# TYPE m_us histogram\nm_us_bucket{le=\"10\"} 0\nm_us_bucket{le=\"20\"} 0\nm_us_bucket{le=\"50\"} 1\n",
		"m_us_bucket{le=\"10000000\"} 1\nm_us_bucket{le=\"+Inf\"} 1\nm_us_sum 50\nm_us_count 1\n",
		"# TYPE z_total counter\nz_total 3\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q in:\n%s", want, out)
		}
	}
	if strings.Index(out, "a_entries") > strings.Index(out, "z_total") {
		t.Error("exposition not sorted by name")
	}
}

func TestCounterVec(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("rules_total", "rule")
	v.With("R4").Add(3)
	v.With("R16").Inc()
	if r.CounterVec("rules_total", "rule") != v {
		t.Error("re-registration returned a different vec")
	}
	if v.With("R4") != v.With("R4") {
		t.Error("With not stable for the same value")
	}
	s := r.Snapshot().LabeledCounters["rules_total"]
	if s.Label != "rule" {
		t.Errorf("label = %q", s.Label)
	}
	if s.Values["R4"] != 3 || s.Values["R16"] != 1 {
		t.Errorf("values = %v", s.Values)
	}
}

func TestLabeledExposition(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("rules_total", "rule")
	v.With("R2").Add(2)
	v.With("R11").Add(11)
	out := r.Snapshot().String()
	// Series sorted lexicographically by label value within the family.
	want := "# TYPE rules_total counter\nrules_total{rule=\"R11\"} 11\nrules_total{rule=\"R2\"} 2\n"
	if !strings.Contains(out, want) {
		t.Errorf("exposition missing %q in:\n%s", want, out)
	}
}

func TestInfoAndHelp(t *testing.T) {
	r := NewRegistry()
	r.SetInfo("build_info", map[string]string{"version": "v1.2.3", "go_version": "go1.24"})
	r.SetHelp("build_info", "Build identity.")
	out := r.Snapshot().String()
	want := "# HELP build_info Build identity.\n# TYPE build_info gauge\nbuild_info{go_version=\"go1.24\",version=\"v1.2.3\"} 1\n"
	if !strings.Contains(out, want) {
		t.Errorf("exposition missing %q in:\n%s", want, out)
	}
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.CounterVec("odd_total", "v").With("a\\b\"c\nd").Inc()
	r.SetInfo("odd_info", map[string]string{"v": "x\"y"})
	r.SetHelp("odd_total", "line one\nline two \\ slash")
	out := r.Snapshot().String()
	for _, want := range []string{
		`odd_total{v="a\\b\"c\nd"} 1`,
		`odd_info{v="x\"y"} 1`,
		`# HELP odd_total line one\nline two \\ slash`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q in:\n%s", want, out)
		}
	}
	if errs := Lint(out); len(errs) != 0 {
		t.Errorf("escaped exposition fails lint: %v", errs)
	}
}

func TestConcurrentUse(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				r.Counter("c").Inc()
				r.Gauge("g").Add(1)
				r.Histogram("h").Observe(uint64(j))
				if j%100 == 0 {
					r.Snapshot()
				}
			}
		}()
	}
	wg.Wait()
	s := r.Snapshot()
	if s.Counters["c"] != 8000 || s.Gauges["g"] != 8000 || s.Histograms["h"].Count != 8000 {
		t.Errorf("lost updates: %+v", s)
	}
}

func TestGaugeVec(t *testing.T) {
	r := NewRegistry()
	v := r.GaugeVec("shard_healthy", "shard")
	v.With("s1").Set(1)
	v.With("s2").Set(-3)
	if r.GaugeVec("shard_healthy", "shard") != v {
		t.Error("re-registration returned a different vec")
	}
	if v.With("s1") != v.With("s1") {
		t.Error("With not stable for the same value")
	}
	s := r.Snapshot().LabeledGauges["shard_healthy"]
	if s.Label != "shard" {
		t.Errorf("label = %q", s.Label)
	}
	if s.Values["s1"] != 1 || s.Values["s2"] != -3 {
		t.Errorf("values = %v", s.Values)
	}
	out := r.Snapshot().String()
	want := "# TYPE shard_healthy gauge\nshard_healthy{shard=\"s1\"} 1\nshard_healthy{shard=\"s2\"} -3\n"
	if !strings.Contains(out, want) {
		t.Errorf("exposition missing %q in:\n%s", want, out)
	}
	// An empty family must not emit a bare TYPE line (strict grammar).
	r2 := NewRegistry()
	r2.GaugeVec("never_set", "shard")
	if strings.Contains(r2.Snapshot().String(), "never_set") {
		t.Error("empty gauge family leaked into the exposition")
	}
	if err := Lint(out); err != nil {
		t.Fatalf("labeled-gauge exposition fails lint: %v", err)
	}
}

func TestFloatGauge(t *testing.T) {
	r := NewRegistry()
	g := r.FloatGauge("burn")
	g.Set(14.4)
	if got := g.Load(); got != 14.4 {
		t.Errorf("Load = %v, want 14.4", got)
	}
	if r.FloatGauge("burn") != g {
		t.Error("re-registration returned a different gauge")
	}
	// Non-finite values are clamped to 0 so the text exposition stays
	// within the strict grammar (no NaN/Inf samples).
	g.Set(math.NaN())
	if got := g.Load(); got != 0 {
		t.Errorf("NaN clamped to %v, want 0", got)
	}
	g.Set(math.Inf(1))
	if got := g.Load(); got != 0 {
		t.Errorf("+Inf clamped to %v, want 0", got)
	}
	g.Set(0.0625)
	out := r.Snapshot().String()
	want := "# TYPE burn gauge\nburn 0.0625\n"
	if !strings.Contains(out, want) {
		t.Errorf("exposition missing %q in:\n%s", want, out)
	}
	if err := Lint(out); err != nil {
		t.Fatalf("float-gauge exposition fails lint: %v", err)
	}
}

func TestFloatGaugeVec(t *testing.T) {
	r := NewRegistry()
	v := r.FloatGaugeVec("sigrec_slo_burn_rate", "slo")
	v.With("availability:1h").Set(2.5)
	v.With("availability:5m").Set(0.5)
	if v.With("availability:1h") != v.With("availability:1h") {
		t.Error("With not stable for the same value")
	}
	s := r.Snapshot().LabeledFloatGauges["sigrec_slo_burn_rate"]
	if s.Label != "slo" {
		t.Errorf("label = %q", s.Label)
	}
	if s.Values["availability:1h"] != 2.5 || s.Values["availability:5m"] != 0.5 {
		t.Errorf("values = %v", s.Values)
	}
	r.SetHelp("sigrec_slo_burn_rate", "Error-budget burn rate per SLO window.")
	out := r.Snapshot().String()
	want := "# TYPE sigrec_slo_burn_rate gauge\n" +
		"sigrec_slo_burn_rate{slo=\"availability:1h\"} 2.5\n" +
		"sigrec_slo_burn_rate{slo=\"availability:5m\"} 0.5\n"
	if !strings.Contains(out, want) {
		t.Errorf("exposition missing %q in:\n%s", want, out)
	}
	if err := Lint(out); err != nil {
		t.Fatalf("float-gauge-vec exposition fails lint: %v", err)
	}
	// An empty family must not emit a bare TYPE line (strict grammar).
	r2 := NewRegistry()
	r2.FloatGaugeVec("never_set", "slo")
	if strings.Contains(r2.Snapshot().String(), "never_set") {
		t.Error("empty float-gauge family leaked into the exposition")
	}
}

func TestSnapshotInfoLabels(t *testing.T) {
	r := NewRegistry()
	r.SetInfo("build_info", map[string]string{"version": "v9", "shard": "s2"})
	s := r.Snapshot()
	got := s.InfoLabels["build_info"]
	if got["version"] != "v9" || got["shard"] != "s2" {
		t.Errorf("InfoLabels = %v", got)
	}
}

// TestHistogramExemplar checks ObserveExemplar retains the most recent
// request id per bucket and the exposition carries it in OpenMetrics
// style, accepted by the linter.
func TestHistogramExemplar(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat")
	h.ObserveExemplar(600, "req-a")
	h.ObserveExemplar(700, "req-b") // displaces req-a in the (500, 1000] bucket
	h.ObserveExemplar(5000, "req-c")
	h.Observe(200) // no id: count moves, exemplar untouched
	snap := r.Snapshot().Histograms["lat"]
	if e := snap.Exemplars[bucketOf(700)]; e == nil || e.ID != "req-b" {
		t.Fatalf("le=1000 exemplar = %+v, want req-b", e)
	}
	if e := snap.Exemplars[bucketOf(5000)]; e == nil || e.ID != "req-c" {
		t.Fatalf("le=5000 exemplar = %+v, want req-c", e)
	}
	if e := snap.Exemplars[bucketOf(200)]; e != nil {
		t.Fatalf("le=200 exemplar = %+v, want none", e)
	}
	if e := snap.Exemplars[len(latencyBuckets)]; e != nil {
		t.Fatalf("+Inf bucket exemplar = %+v, want none", e)
	}
	out := r.Snapshot().String()
	if !strings.Contains(out, `lat_bucket{le="1000"} 3 # {request_id="req-b"} 700`) {
		t.Errorf("exposition missing exemplar suffix:\n%s", out)
	}
	if errs := Lint(out); len(errs) != 0 {
		t.Errorf("lint rejects exemplar exposition: %v", errs)
	}
}

// TestOnSnapshot checks snapshot hooks run before metric reads, so
// scrape-time gauges are fresh in the same snapshot.
func TestOnSnapshot(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("refreshed")
	calls := 0
	r.OnSnapshot(func() { calls++; g.Set(int64(calls)) })
	if v := r.Snapshot().Gauges["refreshed"]; v != 1 {
		t.Fatalf("first snapshot gauge = %d, want 1", v)
	}
	if v := r.Snapshot().Gauges["refreshed"]; v != 2 {
		t.Fatalf("second snapshot gauge = %d, want 2", v)
	}
}
