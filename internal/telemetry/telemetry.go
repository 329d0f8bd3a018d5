// Package telemetry is a dependency-free metrics substrate for the
// recovery pipeline: atomic counters, gauges, and fixed-bucket monotonic
// histograms, with a point-in-time Snapshot and a Prometheus-flavoured
// text exposition. All mutation paths are lock-free (a registry lock is
// taken only on first metric registration), so instruments can sit on the
// TASE hot path without measurable overhead.
//
// Every histogram shares one microsecond bucket layout (LatencyBuckets)
// that contains the E3 time-distribution bounds of the paper's Fig. 17
// (<1ms, 1-10ms, 10-100ms, >=100ms), so the served metrics line up with
// the evaluation, and histograms from different processes can be summed
// bucket by bucket. Quantiles and threshold counts are read off the
// buckets (HistogramSnapshot.Quantile, CountAtOrBelow); there is no
// second latency representation.
package telemetry

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// latencyBuckets is the bucket layout of every histogram: upper bounds in
// microseconds, log-spaced 1-2-5 per decade from 10µs to 10s, with an
// implicit final +Inf bucket. It contains the paper's Fig. 17 bounds
// (1ms, 10ms, 100ms) and the default latency-SLO thresholds of sigrecd
// (100ms) and sigrec-scan (500ms), so those readings are exact bucket
// counts rather than interpolations. An array, so no caller can change
// it: LatencyBuckets and every snapshot hand out copies.
var latencyBuckets = [...]uint64{
	10, 20, 50,
	100, 200, 500,
	1_000, 2_000, 5_000,
	10_000, 20_000, 50_000,
	100_000, 200_000, 500_000,
	1_000_000, 2_000_000, 5_000_000,
	10_000_000,
}

// LatencyBuckets returns a copy of the shared bucket layout.
func LatencyBuckets() []uint64 { return append([]uint64(nil), latencyBuckets[:]...) }

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Load returns the current value.
func (c *Counter) Load() uint64 { return c.v.Load() }

// Gauge is an instantaneous signed value.
type Gauge struct {
	v atomic.Int64
}

// Set stores n.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add adds n (n may be negative).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Load returns the current value.
func (g *Gauge) Load() int64 { return g.v.Load() }

// FloatGauge is an instantaneous float64 value (bit-cast through an atomic
// word), for quantities that are genuinely fractional — burn rates, error
// budgets — where an integer gauge would round away the signal.
type FloatGauge struct {
	bits atomic.Uint64
}

// Set stores v. NaN and infinities are clamped to zero so the exposition
// stays parseable by strict scrapers.
func (g *FloatGauge) Set(v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	g.bits.Store(math.Float64bits(v))
}

// Load returns the current value.
func (g *FloatGauge) Load() float64 { return math.Float64frombits(g.bits.Load()) }

// FloatGaugeVec is a family of float gauges distinguished by one label
// (e.g. sigrec_slo_burn_rate{slo="availability:1h"}). With resolves a
// label value to its gauge; hot paths should resolve once and cache the
// *FloatGauge.
type FloatGaugeVec struct {
	label string
	mu    sync.RWMutex
	m     map[string]*FloatGauge
}

// With returns the gauge for the label value, creating it on first use.
func (v *FloatGaugeVec) With(value string) *FloatGauge {
	v.mu.RLock()
	g, ok := v.m[value]
	v.mu.RUnlock()
	if ok {
		return g
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if g, ok = v.m[value]; !ok {
		g = &FloatGauge{}
		v.m[value] = g
	}
	return g
}

// CounterVec is a family of counters distinguished by one label (e.g.
// sigrec_rule_fired_total{rule="R11"}). With resolves a label value to its
// counter; hot paths should resolve once and cache the *Counter, after
// which increments are single atomic adds exactly like a plain Counter.
type CounterVec struct {
	label string
	mu    sync.RWMutex
	m     map[string]*Counter
}

// With returns the counter for the label value, creating it on first use.
func (v *CounterVec) With(value string) *Counter {
	v.mu.RLock()
	c, ok := v.m[value]
	v.mu.RUnlock()
	if ok {
		return c
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if c, ok = v.m[value]; !ok {
		c = &Counter{}
		v.m[value] = c
	}
	return c
}

// GaugeVec is a family of gauges distinguished by one label (e.g.
// cluster_shard_healthy{shard="s1"}). With resolves a label value to its
// gauge; hot paths should resolve once and cache the *Gauge, after which
// mutations are single atomic stores exactly like a plain Gauge.
type GaugeVec struct {
	label string
	mu    sync.RWMutex
	m     map[string]*Gauge
}

// With returns the gauge for the label value, creating it on first use.
func (v *GaugeVec) With(value string) *Gauge {
	v.mu.RLock()
	g, ok := v.m[value]
	v.mu.RUnlock()
	if ok {
		return g
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if g, ok = v.m[value]; !ok {
		g = &Gauge{}
		v.m[value] = g
	}
	return g
}

// ExemplarLabel is the label name exemplars are exposed under: a request
// id linking a histogram bucket back to its trace in the flight recorder.
const ExemplarLabel = "request_id"

// Exemplar ties one recent observation to the request that produced it,
// attached to the histogram bucket the observation fell into. Exposed in
// OpenMetrics style (`... # {request_id="..."} <value>`) so a latency
// spike on /metrics links directly to a span tree at /debug/slowest.
type Exemplar struct {
	// ID is the request id of the exemplified observation.
	ID string
	// Value is the observed value, microseconds.
	Value uint64
}

// Histogram is a LatencyBuckets histogram of microsecond observations.
// The per-bucket counts are stored non-cumulatively and cumulated at
// snapshot time, which keeps Observe to two atomic adds per call.
type Histogram struct {
	counts []atomic.Uint64
	sum    atomic.Uint64
	// exemplars holds the most recent identified observation per bucket
	// (pointer swap on write, nil when the bucket never saw one).
	exemplars []atomic.Pointer[Exemplar]
}

func newHistogram() *Histogram {
	return &Histogram{
		counts:    make([]atomic.Uint64, len(latencyBuckets)+1),
		exemplars: make([]atomic.Pointer[Exemplar], len(latencyBuckets)+1),
	}
}

// bucketOf returns the index of the bucket holding us (len(latencyBuckets)
// is the +Inf bucket).
func bucketOf(us uint64) int {
	return sort.Search(len(latencyBuckets), func(i int) bool { return us <= latencyBuckets[i] })
}

// Observe records one microsecond value.
func (h *Histogram) Observe(us uint64) {
	h.counts[bucketOf(us)].Add(1)
	h.sum.Add(us)
}

// ObserveExemplar is Observe plus an exemplar: the request id is retained
// as the bucket's most recent exemplar (one pointer store; empty ids
// degrade to a plain Observe).
func (h *Histogram) ObserveExemplar(us uint64, requestID string) {
	i := bucketOf(us)
	h.counts[i].Add(1)
	h.sum.Add(us)
	if requestID != "" {
		h.exemplars[i].Store(&Exemplar{ID: requestID, Value: us})
	}
}

// ObserveDuration records a duration, clamped at zero.
func (h *Histogram) ObserveDuration(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.Observe(uint64(d.Microseconds()))
}

// Snapshot copies the histogram's current state. Count is the sum of the
// bucket counts read, so the snapshot is self-consistent (Cumulative ends
// at Count) even under concurrent writers.
func (h *Histogram) Snapshot() HistogramSnapshot {
	hs := HistogramSnapshot{
		Bounds:     LatencyBuckets(),
		Cumulative: make([]uint64, len(h.counts)),
		Sum:        h.sum.Load(),
		Exemplars:  make([]*Exemplar, len(h.counts)),
	}
	for i := range h.counts {
		hs.Count += h.counts[i].Load()
		hs.Cumulative[i] = hs.Count
		hs.Exemplars[i] = h.exemplars[i].Load()
	}
	return hs
}

// HistogramSnapshot is the point-in-time state of a histogram.
type HistogramSnapshot struct {
	// Bounds are the bucket upper bounds in microseconds (a copy of
	// LatencyBuckets for registry histograms); the final implicit bucket
	// is +Inf.
	Bounds []uint64
	// Cumulative holds one entry per bound plus the +Inf bucket; entry i
	// counts observations <= Bounds[i] (monotone non-decreasing, last
	// entry == Count).
	Cumulative []uint64
	// Sum is the total of all observed values, microseconds.
	Sum uint64
	// Count is the number of observations.
	Count uint64
	// Exemplars holds the most recent identified observation per bucket
	// (parallel to Cumulative; nil entries mean no exemplar yet).
	Exemplars []*Exemplar
}

// CountAtOrBelow returns how many observations were <= us. It is exact
// when us is a bucket bound; between bounds it interpolates linearly
// within the one straddling bucket, so the error is at most that bucket's
// count. Past the last finite bound it counts only what the bounds vouch
// for. The result is a fixed-weight sum of cumulative bucket counts, so
// successive snapshots of one histogram never report a smaller value.
func (h HistogramSnapshot) CountAtOrBelow(us float64) float64 {
	i := sort.Search(len(h.Bounds), func(i int) bool { return us <= float64(h.Bounds[i]) })
	if i == len(h.Bounds) {
		if i == 0 {
			return 0
		}
		return float64(h.Cumulative[i-1])
	}
	lo, below := h.lowerEdge(i)
	if us <= lo {
		return below
	}
	hi := float64(h.Bounds[i])
	return below + (float64(h.Cumulative[i])-below)*(us-lo)/(hi-lo)
}

// Quantile returns the q-quantile (0 <= q <= 1) interpolated linearly
// within the bucket holding rank q*Count, so the estimate always lies in
// the bucket that holds the true quantile. A quantile in the +Inf bucket
// reports the highest finite bound; an empty histogram reports 0.
func (h HistogramSnapshot) Quantile(q float64) float64 {
	if h.Count == 0 || len(h.Bounds) == 0 {
		return 0
	}
	rank := q * float64(h.Count)
	i := sort.Search(len(h.Cumulative), func(i int) bool { return float64(h.Cumulative[i]) >= rank })
	if i >= len(h.Bounds) {
		return float64(h.Bounds[len(h.Bounds)-1])
	}
	lo, below := h.lowerEdge(i)
	if rank <= below {
		return lo
	}
	hi := float64(h.Bounds[i])
	return lo + (hi-lo)*(rank-below)/(float64(h.Cumulative[i])-below)
}

// lowerEdge returns bucket i's lower bound and the cumulative count below
// it (0, 0 for the first bucket).
func (h HistogramSnapshot) lowerEdge(i int) (lo, below float64) {
	if i == 0 {
		return 0, 0
	}
	return float64(h.Bounds[i-1]), float64(h.Cumulative[i-1])
}

// LabeledCounterSnapshot is the point-in-time state of a CounterVec: the
// label name plus one value per observed label value.
type LabeledCounterSnapshot struct {
	Label  string
	Values map[string]uint64
}

// LabeledGaugeSnapshot is the point-in-time state of a GaugeVec.
type LabeledGaugeSnapshot struct {
	Label  string
	Values map[string]int64
}

// LabeledFloatGaugeSnapshot is the point-in-time state of a FloatGaugeVec.
type LabeledFloatGaugeSnapshot struct {
	Label  string
	Values map[string]float64
}

// Snapshot is a consistent-enough point-in-time copy of a registry. (Each
// metric is read atomically; cross-metric skew under concurrent writers is
// bounded by the snapshot walk, which carries no locks on the write path.)
type Snapshot struct {
	Counters           map[string]uint64
	Gauges             map[string]int64
	FloatGauges        map[string]float64
	Histograms         map[string]HistogramSnapshot
	LabeledCounters    map[string]LabeledCounterSnapshot
	LabeledGauges      map[string]LabeledGaugeSnapshot
	LabeledFloatGauges map[string]LabeledFloatGaugeSnapshot
	// Infos maps info-metric names to their pre-rendered, escaped label
	// block (`{k="v",...}`); each exposes as a gauge with constant value 1.
	Infos map[string]string
	// InfoLabels carries the same info metrics as raw key/value maps, for
	// exporters (OTLP) that re-encode labels as structured attributes.
	InfoLabels map[string]map[string]string
	// Help maps metric names to their HELP text.
	Help map[string]string
}

// Registry holds named metrics. Names must be unique across metric kinds
// (a counter and a gauge cannot share a name). The zero value is not
// usable; call NewRegistry.
type Registry struct {
	mu             sync.RWMutex
	counters       map[string]*Counter
	gauges         map[string]*Gauge
	floatGauges    map[string]*FloatGauge
	histograms     map[string]*Histogram
	counterVecs    map[string]*CounterVec
	gaugeVecs      map[string]*GaugeVec
	floatGaugeVecs map[string]*FloatGaugeVec
	infos          map[string]string
	infoLabels     map[string]map[string]string
	help           map[string]string
	// hooks run (outside the lock) at the start of every Snapshot; used to
	// refresh pull-style gauges such as the Go runtime self-metrics.
	hooksMu sync.Mutex
	hooks   []func()
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:       make(map[string]*Counter),
		gauges:         make(map[string]*Gauge),
		floatGauges:    make(map[string]*FloatGauge),
		histograms:     make(map[string]*Histogram),
		counterVecs:    make(map[string]*CounterVec),
		gaugeVecs:      make(map[string]*GaugeVec),
		floatGaugeVecs: make(map[string]*FloatGaugeVec),
		infos:          make(map[string]string),
		infoLabels:     make(map[string]map[string]string),
		help:           make(map[string]string),
	}
}

// OnSnapshot registers a hook invoked at the start of every Snapshot (and
// therefore every exposition), before any metric is read. Hooks refresh
// scrape-time gauges — runtime self-metrics, derived rates — without a
// background poller.
func (r *Registry) OnSnapshot(f func()) {
	r.hooksMu.Lock()
	r.hooks = append(r.hooks, f)
	r.hooksMu.Unlock()
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.RLock()
	c, ok := r.counters[name]
	r.mu.RUnlock()
	if ok {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok = r.counters[name]; !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.RLock()
	g, ok := r.gauges[name]
	r.mu.RUnlock()
	if ok {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok = r.gauges[name]; !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// FloatGauge returns the named float gauge, creating it on first use.
func (r *Registry) FloatGauge(name string) *FloatGauge {
	r.mu.RLock()
	g, ok := r.floatGauges[name]
	r.mu.RUnlock()
	if ok {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok = r.floatGauges[name]; !ok {
		g = &FloatGauge{}
		r.floatGauges[name] = g
	}
	return g
}

// Histogram returns the named LatencyBuckets histogram, creating it on
// first use.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.RLock()
	h, ok := r.histograms[name]
	r.mu.RUnlock()
	if ok {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok = r.histograms[name]; !ok {
		h = newHistogram()
		r.histograms[name] = h
	}
	return h
}

// CounterVec returns the named one-label counter family, creating it with
// the given label name on first use (the label passed on later calls for
// the same name is ignored).
func (r *Registry) CounterVec(name, label string) *CounterVec {
	r.mu.RLock()
	v, ok := r.counterVecs[name]
	r.mu.RUnlock()
	if ok {
		return v
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if v, ok = r.counterVecs[name]; !ok {
		v = &CounterVec{label: label, m: make(map[string]*Counter)}
		r.counterVecs[name] = v
	}
	return v
}

// GaugeVec returns the named one-label gauge family, creating it with the
// given label name on first use (the label passed on later calls for the
// same name is ignored).
func (r *Registry) GaugeVec(name, label string) *GaugeVec {
	r.mu.RLock()
	v, ok := r.gaugeVecs[name]
	r.mu.RUnlock()
	if ok {
		return v
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if v, ok = r.gaugeVecs[name]; !ok {
		v = &GaugeVec{label: label, m: make(map[string]*Gauge)}
		r.gaugeVecs[name] = v
	}
	return v
}

// FloatGaugeVec returns the named one-label float-gauge family, creating
// it with the given label name on first use (the label passed on later
// calls for the same name is ignored).
func (r *Registry) FloatGaugeVec(name, label string) *FloatGaugeVec {
	r.mu.RLock()
	v, ok := r.floatGaugeVecs[name]
	r.mu.RUnlock()
	if ok {
		return v
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if v, ok = r.floatGaugeVecs[name]; !ok {
		v = &FloatGaugeVec{label: label, m: make(map[string]*FloatGauge)}
		r.floatGaugeVecs[name] = v
	}
	return v
}

// SetInfo publishes an info metric: a gauge with constant value 1 whose
// labels carry build/configuration identity (the sigrec_build_info idiom).
// Later calls for the same name replace the labels.
func (r *Registry) SetInfo(name string, labels map[string]string) {
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=\"%s\"", k, escapeLabel(labels[k]))
	}
	b.WriteByte('}')
	raw := make(map[string]string, len(labels))
	for k, v := range labels {
		raw[k] = v
	}
	r.mu.Lock()
	r.infos[name] = b.String()
	r.infoLabels[name] = raw
	r.mu.Unlock()
}

// SetHelp attaches HELP text to a metric name, emitted before the TYPE
// line in the exposition.
func (r *Registry) SetHelp(name, help string) {
	r.mu.Lock()
	r.help[name] = help
	r.mu.Unlock()
}

// escapeLabel escapes a label value per the Prometheus text format:
// backslash, double quote, and newline.
func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	return labelEscaper.Replace(v)
}

var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// escapeHelp escapes HELP text: backslash and newline.
var escapeHelp = strings.NewReplacer(`\`, `\\`, "\n", `\n`).Replace

// Snapshot copies the current state of every metric.
func (r *Registry) Snapshot() Snapshot {
	r.hooksMu.Lock()
	hooks := r.hooks
	r.hooksMu.Unlock()
	for _, f := range hooks {
		f()
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	s := Snapshot{
		Counters:           make(map[string]uint64, len(r.counters)),
		Gauges:             make(map[string]int64, len(r.gauges)),
		FloatGauges:        make(map[string]float64, len(r.floatGauges)),
		Histograms:         make(map[string]HistogramSnapshot, len(r.histograms)),
		LabeledCounters:    make(map[string]LabeledCounterSnapshot, len(r.counterVecs)),
		LabeledGauges:      make(map[string]LabeledGaugeSnapshot, len(r.gaugeVecs)),
		LabeledFloatGauges: make(map[string]LabeledFloatGaugeSnapshot, len(r.floatGaugeVecs)),
		Infos:              make(map[string]string, len(r.infos)),
		InfoLabels:         make(map[string]map[string]string, len(r.infoLabels)),
		Help:               make(map[string]string, len(r.help)),
	}
	for name, v := range r.counterVecs {
		v.mu.RLock()
		ls := LabeledCounterSnapshot{Label: v.label, Values: make(map[string]uint64, len(v.m))}
		for value, c := range v.m {
			ls.Values[value] = c.Load()
		}
		v.mu.RUnlock()
		s.LabeledCounters[name] = ls
	}
	for name, v := range r.gaugeVecs {
		v.mu.RLock()
		ls := LabeledGaugeSnapshot{Label: v.label, Values: make(map[string]int64, len(v.m))}
		for value, g := range v.m {
			ls.Values[value] = g.Load()
		}
		v.mu.RUnlock()
		s.LabeledGauges[name] = ls
	}
	for name, v := range r.floatGaugeVecs {
		v.mu.RLock()
		ls := LabeledFloatGaugeSnapshot{Label: v.label, Values: make(map[string]float64, len(v.m))}
		for value, g := range v.m {
			ls.Values[value] = g.Load()
		}
		v.mu.RUnlock()
		s.LabeledFloatGauges[name] = ls
	}
	for name, rendered := range r.infos {
		s.Infos[name] = rendered
	}
	for name, labels := range r.infoLabels {
		s.InfoLabels[name] = labels
	}
	for name, h := range r.help {
		s.Help[name] = h
	}
	for name, c := range r.counters {
		s.Counters[name] = c.Load()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Load()
	}
	for name, g := range r.floatGauges {
		s.FloatGauges[name] = g.Load()
	}
	for name, h := range r.histograms {
		s.Histograms[name] = h.Snapshot()
	}
	return s
}

// WriteTo writes the text exposition of the registry's current state.
func (r *Registry) WriteTo(w io.Writer) (int64, error) {
	return r.Snapshot().WriteTo(w)
}

// WriteTo writes the snapshot in a Prometheus-flavoured text format:
// sorted by metric name, an optional "# HELP" then one "# TYPE" line per
// metric, histograms as cumulative le="..." buckets plus _sum and _count
// (buckets carry an OpenMetrics-style `# {request_id="..."} v` exemplar
// when one was recorded), labeled counter families as one series
// per label value sorted by value, info metrics as constant-1 gauges.
// Label values are escaped per the text format, so the output passes the
// strict Lint grammar.
func (s Snapshot) WriteTo(w io.Writer) (int64, error) {
	var b strings.Builder
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
	for n := range s.LabeledFloatGauges {
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
	for n := range s.Infos {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		// A labeled family with no series yet would emit a TYPE line with no
		// samples — malformed under the strict grammar — so skip it entirely.
		if lc, ok := s.LabeledCounters[n]; ok && len(lc.Values) == 0 {
			continue
		}
		if lg, ok := s.LabeledGauges[n]; ok && len(lg.Values) == 0 {
			continue
		}
		if lfg, ok := s.LabeledFloatGauges[n]; ok && len(lfg.Values) == 0 {
			continue
		}
		if help, ok := s.Help[n]; ok && help != "" {
			fmt.Fprintf(&b, "# HELP %s %s\n", n, escapeHelp(help))
		}
		switch {
		case hasKey(s.Counters, n):
			fmt.Fprintf(&b, "# TYPE %s counter\n%s %d\n", n, n, s.Counters[n])
		case hasKey(s.Gauges, n):
			fmt.Fprintf(&b, "# TYPE %s gauge\n%s %d\n", n, n, s.Gauges[n])
		case hasKey(s.FloatGauges, n):
			fmt.Fprintf(&b, "# TYPE %s gauge\n%s %s\n", n, n, formatFloatSample(s.FloatGauges[n]))
		case hasKey(s.LabeledCounters, n):
			lc := s.LabeledCounters[n]
			fmt.Fprintf(&b, "# TYPE %s counter\n", n)
			values := make([]string, 0, len(lc.Values))
			for v := range lc.Values {
				values = append(values, v)
			}
			sort.Strings(values)
			for _, v := range values {
				fmt.Fprintf(&b, "%s{%s=\"%s\"} %d\n", n, lc.Label, escapeLabel(v), lc.Values[v])
			}
		case hasKey(s.LabeledGauges, n):
			lg := s.LabeledGauges[n]
			fmt.Fprintf(&b, "# TYPE %s gauge\n", n)
			values := make([]string, 0, len(lg.Values))
			for v := range lg.Values {
				values = append(values, v)
			}
			sort.Strings(values)
			for _, v := range values {
				fmt.Fprintf(&b, "%s{%s=\"%s\"} %d\n", n, lg.Label, escapeLabel(v), lg.Values[v])
			}
		case hasKey(s.LabeledFloatGauges, n):
			lfg := s.LabeledFloatGauges[n]
			fmt.Fprintf(&b, "# TYPE %s gauge\n", n)
			values := make([]string, 0, len(lfg.Values))
			for v := range lfg.Values {
				values = append(values, v)
			}
			sort.Strings(values)
			for _, v := range values {
				fmt.Fprintf(&b, "%s{%s=\"%s\"} %s\n", n, lfg.Label, escapeLabel(v),
					formatFloatSample(lfg.Values[v]))
			}
		case hasKey(s.Infos, n):
			fmt.Fprintf(&b, "# TYPE %s gauge\n%s%s 1\n", n, n, s.Infos[n])
		default:
			h := s.Histograms[n]
			fmt.Fprintf(&b, "# TYPE %s histogram\n", n)
			for i, bound := range h.Bounds {
				fmt.Fprintf(&b, "%s_bucket{le=\"%d\"} %d", n, bound, h.Cumulative[i])
				writeExemplar(&b, h.Exemplars, i)
				b.WriteByte('\n')
			}
			fmt.Fprintf(&b, "%s_bucket{le=\"+Inf\"} %d", n, h.Count)
			writeExemplar(&b, h.Exemplars, len(h.Bounds))
			b.WriteByte('\n')
			fmt.Fprintf(&b, "%s_sum %d\n", n, h.Sum)
			fmt.Fprintf(&b, "%s_count %d\n", n, h.Count)
		}
	}
	n, err := io.WriteString(w, b.String())
	return int64(n), err
}

// String renders the exposition as a string.
func (s Snapshot) String() string {
	var b strings.Builder
	s.WriteTo(&b)
	return b.String()
}

// writeExemplar appends the OpenMetrics-style exemplar suffix for bucket
// i, when one exists: ` # {request_id="<id>"} <value>`.
func writeExemplar(b *strings.Builder, exemplars []*Exemplar, i int) {
	if i >= len(exemplars) || exemplars[i] == nil {
		return
	}
	e := exemplars[i]
	fmt.Fprintf(b, " # {%s=\"%s\"} %d", ExemplarLabel, escapeLabel(e.ID), e.Value)
}

// formatFloatSample renders a float sample value in the plain decimal form
// the strict lint grammar accepts ('f' never emits an exponent).
func formatFloatSample(v float64) string {
	return strconv.FormatFloat(v, 'f', -1, 64)
}

func hasKey[V any](m map[string]V, k string) bool {
	_, ok := m[k]
	return ok
}
