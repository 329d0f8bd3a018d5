package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"

	"sigrec/internal/core"
)

// metricDef is one metric as BENCHMARK.json lists it; the file also
// holds each metric's direction and bound. The test suite checks that
// these tables and the file agree name for name.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees, reported by every
// workload with tracing off.
var endToEnd = []metricDef{
	{"throughput_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"alloc_kb_per_op", "KiB"},
	{"setup_s", "s"},
}

// fleetRates are the open-loop arrival rates of fleet-open, in requests
// per second. A closed-loop saturation step follows them.
var fleetRates = []int{1000, 2000, 3000}

// perLayer are the per-layer metrics, reported by every workload with
// tracing on. A layer the workload does not run reports 0.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"evm.disasm_us", "us"},
		{"evm.instructions", "count/op"},
		{"core.dispatch_us", "us"},
		{"core.selectors", "count/op"},
		{"core.explore_us", "us"},
		{"core.tase_steps", "count/op"},
		{"core.tase_paths", "count/op"},
		{"core.tase_events", "count/op"},
		{"core.intern_hit_ratio", "ratio"},
		{"core.clone_kb", "KiB/op"},
		{"core.truncations", "count"},
		{"core.infer_us", "us"},
		{"core.rule_fires", "count/op"},
		{"runtime.cpu_us_per_op", "us"},
		{"runtime.gc_cpu_share", "ratio"},
		{"runtime.gc_cycles_per_op", "count/op"},
		{"runtime.mallocs_per_op", "count/op"},
		{"keccak.us_per_key", "us"},
		{"cache.hit_ratio", "ratio"},
		{"cache.coalesced", "count"},
		{"cache.evictions", "count"},
		{"store.hit_ratio", "ratio"},
		{"store.misses", "count"},
		{"store.load_us", "us"},
		{"store.save_us", "us"},
		{"server.handler_us", "us"},
		{"server.socket_us", "us"},
		{"server.errors", "count"},
		{"server.shed", "count"},
		{"cluster.router_hop_us", "us"},
		{"cluster.retries", "count"},
		{"cluster.hedges", "count"},
	}
	for _, r := range fleetRates {
		defs = append(defs,
			metricDef{fmt.Sprintf("fleet.p50_ms.r%d", r), "ms"},
			metricDef{fmt.Sprintf("fleet.p99_ms.r%d", r), "ms"},
			metricDef{fmt.Sprintf("fleet.late_p99_ms.r%d", r), "ms"},
			metricDef{fmt.Sprintf("fleet.sent.r%d", r), "count"},
			metricDef{fmt.Sprintf("fleet.failed.r%d", r), "count"},
		)
	}
	return append(defs,
		metricDef{"fleet.max_rate_per_s", "1/s"},
		metricDef{"fleet.sat_p50_ms", "ms"},
		metricDef{"scan.ingest_us", "us"},
		metricDef{"scan.resolve_us", "us"},
		metricDef{"scan.dedupe_hit_ratio", "ratio"},
		metricDef{"scan.recover_us", "us"},
		metricDef{"scan.rescan_recover_us", "us"},
		metricDef{"scan.publish_ms", "ms"},
		metricDef{"scan.checkpoints", "count"},
		metricDef{"efsd.save_kb", "KiB"},
		metricDef{"core.layer_sum_ratio", "ratio"},
		metricDef{"trace.overhead_ratio", "ratio"},
		metricDef{"e4.explore_slope_us", "us"},
		metricDef{"e4.explore_r2", "ratio"},
		metricDef{"e4.other_slope_us", "us"},
		metricDef{"latency.p99_ms", "ms"},
		metricDef{"latency.tail_ms", "ms"},
		metricDef{"latency.tail_pct", "%"},
		metricDef{"latency.samples", "count"},
		metricDef{"check.wrong_sigs", "count"},
		metricDef{"check.accuracy", "ratio"},
		metricDef{"check.fail_ratio", "ratio"},
	)
}()

// metricValue is one reported metric on the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's output: the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// report collects what one workload measured. Workloads set values by
// metric name; result picks the set the run's mode reports.
type report struct {
	attempted, failed int64
	// wrong counts checked functions recovered with other types than
	// declared, or missing.
	wrong  int64
	values map[string]float64
}

func newReport() *report { return &report{values: map[string]float64{}} }

func (r *report) set(name string, v float64) { r.values[name] = v }

// result builds the result line: every end-to-end metric when traced is
// false, every per-layer metric when it is true.
func (r *report) result(traced bool) (result, error) {
	known := map[string]bool{}
	for _, d := range endToEnd {
		known[d.name] = true
	}
	for _, d := range perLayer {
		known[d.name] = true
	}
	for name, v := range r.values {
		if !known[name] {
			return result{}, fmt.Errorf("workload reported unknown metric %q", name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return result{}, fmt.Errorf("metric %s is %v", name, v)
		}
	}
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	out := result{
		Correct:   r.failed == 0 && r.wrong == 0 && r.attempted > 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	for _, d := range defs {
		v, ok := r.values[d.name]
		if !ok && !traced {
			return result{}, fmt.Errorf("workload did not report %s", d.name)
		}
		out.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	return out, nil
}

// setCheck records the ground-truth outcome shared by every workload.
func (r *report) setCheck(accuracy float64) {
	r.set("check.wrong_sigs", float64(r.wrong))
	r.set("check.accuracy", accuracy)
	r.set("check.fail_ratio", ratio(float64(r.failed), float64(r.attempted)))
}

// setLatency records a latency distribution's tail: p99, the highest
// percentile with at least ten samples beyond it, and the sample count.
func (r *report) setLatency(lat []time.Duration) {
	xs := durationsMS(lat)
	sort.Float64s(xs)
	r.set("latency.samples", float64(len(xs)))
	r.set("latency.p99_ms", percentile(xs, 99))
	if p, ok := tailPercentile(len(xs)); ok {
		r.set("latency.tail_pct", p)
		r.set("latency.tail_ms", percentile(xs, p))
	}
}

// usage is a point-in-time reading of the process's resource counters.
type usage struct {
	alloc, mallocs uint64
	gcs            uint32
	cpu            time.Duration
	gcCPU, busyCPU float64 // runtime/metrics estimates, CPU-seconds
}

func readUsage() usage {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	cpuSamples := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
	}
	metrics.Read(cpuSamples)
	return usage{
		alloc:   ms.TotalAlloc,
		mallocs: ms.Mallocs,
		gcs:     ms.NumGC,
		cpu:     time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		gcCPU:   cpuSamples[0].Value.Float64(),
		busyCPU: cpuSamples[1].Value.Float64() - cpuSamples[2].Value.Float64(),
	}
}

func (u usage) sub(v usage) usage {
	return usage{
		alloc:   u.alloc - v.alloc,
		mallocs: u.mallocs - v.mallocs,
		gcs:     u.gcs - v.gcs,
		cpu:     u.cpu - v.cpu,
		gcCPU:   u.gcCPU - v.gcCPU,
		busyCPU: u.busyCPU - v.busyCPU,
	}
}

func (u usage) add(v usage) usage {
	return usage{
		alloc:   u.alloc + v.alloc,
		mallocs: u.mallocs + v.mallocs,
		gcs:     u.gcs + v.gcs,
		cpu:     u.cpu + v.cpu,
		gcCPU:   u.gcCPU + v.gcCPU,
		busyCPU: u.busyCPU + v.busyCPU,
	}
}

// setUsage records what a measured phase of ops operations cost the
// process: allocation and CPU per operation, and the Go runtime's share.
func (r *report) setUsage(u usage, ops int64) {
	r.set("alloc_kb_per_op", ratio(float64(u.alloc)/1024, float64(ops)))
	r.set("runtime.cpu_us_per_op", ratio(float64(u.cpu.Nanoseconds())/1e3, float64(ops)))
	r.set("runtime.gc_cpu_share", ratio(u.gcCPU, u.busyCPU))
	r.set("runtime.gc_cycles_per_op", ratio(float64(u.gcs), float64(ops)))
	r.set("runtime.mallocs_per_op", ratio(float64(u.mallocs), float64(ops)))
}

// counters is a flat copy of the pipeline registry's counters; labeled
// families are summed over their labels.
type counters map[string]uint64

func readCounters() counters {
	s := core.Metrics().Snapshot()
	c := make(counters, len(s.Counters)+len(s.LabeledCounters))
	for k, v := range s.Counters {
		c[k] = v
	}
	for k, lc := range s.LabeledCounters {
		for _, v := range lc.Values {
			c[k] += v
		}
	}
	return c
}

func (c counters) sub(o counters) counters {
	d := make(counters, len(c))
	for k, v := range c {
		d[k] = v - o[k]
	}
	return d
}

// setPipeline records the recovery pipeline's work counts over ops
// operations from a counter delta.
func (r *report) setPipeline(d counters, ops int64) {
	per := func(name string) float64 { return ratio(float64(d[name]), float64(ops)) }
	r.set("core.tase_steps", per("sigrec_tase_steps_total"))
	r.set("core.tase_paths", per("sigrec_tase_paths_explored_total"))
	r.set("core.tase_events", per("sigrec_tase_events_collected_total"))
	r.set("core.rule_fires", per("sigrec_rule_fired_total"))
	r.set("core.clone_kb", per("sigrec_state_clone_bytes_total")/1024)
	r.set("core.truncations", float64(d["sigrec_recoveries_truncated_total"]))
	hits, misses := float64(d["sigrec_intern_hits_total"]), float64(d["sigrec_intern_misses_total"])
	r.set("core.intern_hit_ratio", ratio(hits, hits+misses))
	ch, cm := float64(d["sigrec_cache_hits_total"]), float64(d["sigrec_cache_misses_total"])
	r.set("cache.hit_ratio", ratio(ch, ch+cm))
	r.set("cache.coalesced", float64(d["sigrec_cache_coalesced_total"]))
	r.set("cache.evictions", float64(d["sigrec_cache_evictions_total"]))
	sh, sm := float64(d["sigrec_store_hits_total"]), float64(d["sigrec_store_misses_total"])
	r.set("store.hit_ratio", ratio(sh, sh+sm))
	r.set("store.misses", sm)
}

// setLayers records the offline pipeline's layer times per contract from
// a traced run's totals.
func (r *report) setLayers(l layers, contracts int64) {
	per := func(name string) float64 { return ratio(l.total(name).Seconds()*1e6, float64(contracts)) }
	r.set("evm.disasm_us", per(spanDisasm))
	r.set("core.dispatch_us", per(spanDispatch))
	r.set("core.explore_us", per(spanExplore))
	r.set("core.infer_us", per(spanInfer))
	r.set("keccak.us_per_key", ratio(l.total(spanKeccak).Seconds()*1e6, float64(l.count(spanKeccak))))
	r.set("evm.instructions", ratio(float64(l.items(spanDisasm)), float64(contracts)))
	r.set("core.selectors", ratio(float64(l.items(spanDispatch)), float64(contracts)))
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func durationsMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d.Nanoseconds()) / 1e6
	}
	return out
}
