package otlp

import (
	"sort"
	"strings"

	"sigrec/internal/telemetry"
)

// metricsFromSnapshot maps one registry snapshot onto OTLP metrics:
// counters and CounterVec families become monotonic cumulative Sums,
// gauges (int and float, plain and labeled) become Gauges, histograms
// become explicit-bucket Histograms (per-bucket counts, as the OTLP
// schema requires — the registry snapshot is cumulative), and info
// metrics become constant-1 gauges carrying their labels as attributes. HELP text
// rides along as the description. Metric and series order is
// deterministic (sorted), so golden tests and diffing collectors see a
// stable stream. startNano/nowNano parameterize the cumulative window —
// the exporter passes process start and wall now; tests pass fixed
// values.
func metricsFromSnapshot(s telemetry.Snapshot, startNano, nowNano int64) []wireMetric {
	startTS, nowTS := formatInt(startNano), formatInt(nowNano)
	point := func(attrs []keyValue) numberDataPoint {
		return numberDataPoint{Attributes: attrs, StartTimeUnixNano: startTS, TimeUnixNano: nowTS}
	}
	intPoint := func(v int64, attrs []keyValue) numberDataPoint {
		p := point(attrs)
		str := formatInt(v)
		p.AsInt = &str
		return p
	}
	doublePoint := func(v float64, attrs []keyValue) numberDataPoint {
		p := point(attrs)
		p.AsDouble = &v
		return p
	}

	names := make([]string, 0,
		len(s.Counters)+len(s.Gauges)+len(s.FloatGauges)+len(s.Histograms)+
			len(s.LabeledCounters)+len(s.LabeledGauges)+
			len(s.LabeledFloatGauges)+len(s.Infos))
	for n := range s.Counters {
		names = append(names, n)
	}
	for n := range s.Gauges {
		names = append(names, n)
	}
	for n := range s.FloatGauges {
		names = append(names, n)
	}
	for n := range s.Histograms {
		names = append(names, n)
	}
	for n := range s.LabeledCounters {
		names = append(names, n)
	}
	for n := range s.LabeledGauges {
		names = append(names, n)
	}
	for n := range s.LabeledFloatGauges {
		names = append(names, n)
	}
	for n := range s.Infos {
		names = append(names, n)
	}
	sort.Strings(names)

	out := make([]wireMetric, 0, len(names))
	for _, n := range names {
		m := wireMetric{Name: n, Description: s.Help[n], Unit: unitFor(n)}
		switch {
		case hasKey(s.Counters, n):
			m.Sum = &wireSum{
				DataPoints:             []numberDataPoint{intPoint(int64(s.Counters[n]), nil)},
				AggregationTemporality: temporalityCumulative,
				IsMonotonic:            true,
			}
		case hasKey(s.Gauges, n):
			m.Gauge = &wireGauge{DataPoints: []numberDataPoint{intPoint(s.Gauges[n], nil)}}
		case hasKey(s.FloatGauges, n):
			m.Gauge = &wireGauge{DataPoints: []numberDataPoint{doublePoint(s.FloatGauges[n], nil)}}
		case hasKey(s.LabeledCounters, n):
			lc := s.LabeledCounters[n]
			sum := &wireSum{AggregationTemporality: temporalityCumulative, IsMonotonic: true}
			for _, v := range sortedKeys(lc.Values) {
				sum.DataPoints = append(sum.DataPoints,
					intPoint(int64(lc.Values[v]), []keyValue{strAttr(lc.Label, v)}))
			}
			m.Sum = sum
		case hasKey(s.LabeledGauges, n):
			lg := s.LabeledGauges[n]
			g := &wireGauge{}
			for _, v := range sortedKeys(lg.Values) {
				g.DataPoints = append(g.DataPoints,
					intPoint(lg.Values[v], []keyValue{strAttr(lg.Label, v)}))
			}
			m.Gauge = g
		case hasKey(s.LabeledFloatGauges, n):
			lg := s.LabeledFloatGauges[n]
			g := &wireGauge{}
			for _, v := range sortedKeys(lg.Values) {
				g.DataPoints = append(g.DataPoints,
					doublePoint(lg.Values[v], []keyValue{strAttr(lg.Label, v)}))
			}
			m.Gauge = g
		case hasKey(s.Histograms, n):
			m.Histogram = histogramMetric(s.Histograms[n], startTS, nowTS)
		case hasKey(s.InfoLabels, n):
			var attrs []keyValue
			labels := s.InfoLabels[n]
			for _, k := range sortedKeys(labels) {
				attrs = append(attrs, strAttr(k, labels[k]))
			}
			m.Gauge = &wireGauge{DataPoints: []numberDataPoint{intPoint(1, attrs)}}
		default:
			continue
		}
		out = append(out, m)
	}
	return out
}

// histogramMetric converts one cumulative-bucket registry histogram to an
// OTLP explicit-bucket histogram (per-bucket counts, float bounds, the
// most recent exemplar per bucket when one was recorded).
func histogramMetric(h telemetry.HistogramSnapshot, startTS, nowTS string) *wireHistogram {
	dp := histogramDataPoint{
		StartTimeUnixNano: startTS,
		TimeUnixNano:      nowTS,
		Count:             formatUint(h.Count),
		ExplicitBounds:    make([]float64, len(h.Bounds)),
		BucketCounts:      make([]string, len(h.Cumulative)),
	}
	sum := float64(h.Sum)
	dp.Sum = &sum
	for i, b := range h.Bounds {
		dp.ExplicitBounds[i] = float64(b)
	}
	prev := uint64(0)
	for i, c := range h.Cumulative {
		dp.BucketCounts[i] = formatUint(c - prev)
		prev = c
	}
	for _, ex := range h.Exemplars {
		if ex == nil {
			continue
		}
		v := float64(ex.Value)
		we := wireExemplar{TimeUnixNano: nowTS, AsDouble: &v}
		if ex.ID != "" {
			we.FilteredAttributes = []keyValue{strAttr("sigrec.request_id", ex.ID)}
		}
		dp.Exemplars = append(dp.Exemplars, we)
	}
	return &wireHistogram{
		DataPoints:             []histogramDataPoint{dp},
		AggregationTemporality: temporalityCumulative,
	}
}

// unitFor derives the OTLP unit (UCUM) from the repo's metric naming
// convention: every duration family is microseconds and says so in its
// name; ratio-valued SLO gauges are dimensionless.
func unitFor(name string) string {
	switch {
	case strings.Contains(name, "_microseconds") || strings.HasSuffix(name, "_us"):
		return "us"
	case strings.HasSuffix(name, "_seconds"):
		return "s"
	case strings.HasSuffix(name, "_bytes"):
		return "By"
	}
	return ""
}

func hasKey[V any](m map[string]V, k string) bool { _, ok := m[k]; return ok }

func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

// buildMetricsRequest wraps one snapshot's metrics in a ResourceMetrics
// envelope.
func buildMetricsRequest(res resource, sc scope, s telemetry.Snapshot, startNano, nowNano int64) (metricsRequest, int) {
	ms := metricsFromSnapshot(s, startNano, nowNano)
	req := metricsRequest{ResourceMetrics: []resourceMetrics{{
		Resource:     res,
		ScopeMetrics: []scopeMetrics{{Scope: sc, Metrics: ms}},
	}}}
	return req, len(ms)
}
