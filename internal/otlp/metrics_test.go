package otlp

import (
	"strconv"
	"testing"

	"sigrec/internal/telemetry"
)

// testSnapshot populates one registry with every metric kind the
// exposition supports, deterministically.
func testSnapshot() telemetry.Snapshot {
	r := telemetry.NewRegistry()
	r.Counter("sigrec_recoveries_total").Add(17)
	r.SetHelp("sigrec_recoveries_total", "Completed recoveries.")
	r.Gauge("sigrec_queue_depth").Set(3)
	r.FloatGauge("sigrec_slo_error_budget_remaining_ratio").Set(0.75)
	rv := r.CounterVec("sigrec_rule_fires_total", "rule")
	rv.With("R2").Add(5)
	rv.With("R11").Add(2)
	r.GaugeVec("sigrec_shard_healthy", "shard").With("s0").Set(1)
	bv := r.FloatGaugeVec("sigrec_slo_burn_rate", "slo")
	bv.With("availability:5m").Set(14.5)
	bv.With("availability:1h").Set(2.25)
	h := r.Histogram("sigrec_recover_duration_microseconds")
	h.Observe(50)
	h.Observe(500)
	h.ObserveExemplar(5000, "req-ex")
	h.Observe(50000)
	qw := r.Histogram("sigrec_queue_wait_microseconds")
	for i := uint64(1); i <= 100; i++ {
		qw.Observe(i * 10)
	}
	r.SetInfo("sigrec_build_info", map[string]string{"version": "pr9", "shard": "s0"})
	return r.Snapshot()
}

func TestMetricsGolden(t *testing.T) {
	res := buildResource("sigrecd", map[string]string{"sigrec.shard": "s0"})
	req, n := buildMetricsRequest(res, scope{Name: "sigrec/internal/otlp"},
		testSnapshot(), 1700000000_000000000, 1700000060_000000000)
	if n != 9 {
		t.Fatalf("metric count = %d, want 9", n)
	}
	checkGolden(t, "metrics.golden.json", req)
}

func TestMetricsMapping(t *testing.T) {
	ms := metricsFromSnapshot(testSnapshot(), 1, 2)
	byName := map[string]wireMetric{}
	for _, m := range ms {
		byName[m.Name] = m
	}
	// Counter → monotonic cumulative sum.
	c := byName["sigrec_recoveries_total"]
	if c.Sum == nil || !c.Sum.IsMonotonic || c.Sum.AggregationTemporality != temporalityCumulative {
		t.Fatalf("counter mapping: %+v", c)
	}
	if got := *c.Sum.DataPoints[0].AsInt; got != "17" {
		t.Errorf("counter value = %s", got)
	}
	if c.Description != "Completed recoveries." {
		t.Errorf("description = %q", c.Description)
	}
	// CounterVec → one point per label value, sorted.
	rv := byName["sigrec_rule_fires_total"]
	if len(rv.Sum.DataPoints) != 2 ||
		rv.Sum.DataPoints[0].Attributes[0].Key != "rule" ||
		*rv.Sum.DataPoints[0].Attributes[0].Value.StringValue != "R11" {
		t.Errorf("countervec points: %+v", rv.Sum.DataPoints)
	}
	// Float gauge → asDouble.
	fg := byName["sigrec_slo_error_budget_remaining_ratio"]
	if fg.Gauge == nil || *fg.Gauge.DataPoints[0].AsDouble != 0.75 {
		t.Errorf("float gauge: %+v", fg)
	}
	// Histogram → per-bucket counts (snapshot is cumulative), float
	// bounds, the exemplar carried through, microsecond unit inferred.
	h := byName["sigrec_recover_duration_microseconds"]
	if h.Histogram == nil {
		t.Fatal("histogram missing")
	}
	dp := h.Histogram.DataPoints[0]
	nb := len(telemetry.LatencyBuckets())
	if dp.Count != "4" || len(dp.BucketCounts) != nb+1 || len(dp.ExplicitBounds) != nb {
		t.Fatalf("histogram point: %+v", dp)
	}
	// One observation in each of the buckets ending at 50, 500, 5000 and
	// 50000us; every other bucket is empty.
	for i, b := range dp.ExplicitBounds {
		want := "0"
		if b == 50 || b == 500 || b == 5000 || b == 50000 {
			want = "1"
		}
		if dp.BucketCounts[i] != want {
			t.Errorf("bucket le=%v = %s, want %s", b, dp.BucketCounts[i], want)
		}
	}
	if len(dp.Exemplars) != 1 || *dp.Exemplars[0].AsDouble != 5000 {
		t.Errorf("exemplars: %+v", dp.Exemplars)
	}
	if h.Unit != "us" {
		t.Errorf("unit = %q", h.Unit)
	}
	// The queue-wait latency is a histogram too: count, sum, and
	// per-bucket counts that add back up to the count.
	qw := byName["sigrec_queue_wait_microseconds"]
	if qw.Histogram == nil || qw.Histogram.DataPoints[0].Count != "100" ||
		*qw.Histogram.DataPoints[0].Sum != 50500 {
		t.Fatalf("queue-wait histogram: %+v", qw)
	}
	var total int
	for _, c := range qw.Histogram.DataPoints[0].BucketCounts {
		n, _ := strconv.Atoi(c)
		total += n
	}
	if total != 100 {
		t.Errorf("queue-wait bucket counts sum to %d, want 100", total)
	}
	// Info → constant-1 gauge with label attributes.
	info := byName["sigrec_build_info"]
	if info.Gauge == nil || *info.Gauge.DataPoints[0].AsInt != "1" ||
		len(info.Gauge.DataPoints[0].Attributes) != 2 {
		t.Errorf("info: %+v", info)
	}
}
