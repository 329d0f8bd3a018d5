package server

import (
	"sigrec/internal/core"
	"sigrec/internal/obs"
	"sigrec/internal/telemetry"
)

// The serving layer reports into the same registry as the recovery
// pipeline, so GET /metrics serves pipeline and HTTP series in one
// exposition and the existing sigrec_* counters appear alongside the new
// sigrecd_* ones.
var reg = core.Metrics()

// endpointMetrics instruments one HTTP endpoint: request and outcome
// counters, a latency histogram, and an inflight gauge.
type endpointMetrics struct {
	requests *telemetry.Counter
	badInput *telemetry.Counter // 4xx: malformed bytecode or body
	shed     *telemetry.Counter // 429: admission queue full
	errors   *telemetry.Counter // 5xx
	latency  *telemetry.Histogram
	inflight *telemetry.Gauge
}

func newEndpointMetrics(name string) *endpointMetrics {
	prefix := "sigrecd_" + name
	return &endpointMetrics{
		requests: reg.Counter(prefix + "_requests_total"),
		badInput: reg.Counter(prefix + "_bad_input_total"),
		shed:     reg.Counter(prefix + "_shed_total"),
		errors:   reg.Counter(prefix + "_errors_total"),
		latency:  reg.Histogram(prefix + "_duration_microseconds"),
		inflight: reg.Gauge(prefix + "_inflight"),
	}
}

var (
	mRecover   = newEndpointMetrics("recover")
	mBatch     = newEndpointMetrics("batch")
	mMetricsEP = newEndpointMetrics("metrics")
	mHealthz   = newEndpointMetrics("healthz")

	// Pool-level series: queued jobs awaiting a worker, workers mid-
	// recovery, and per-contract batch volume.
	mQueueDepth     = reg.Gauge("sigrecd_queue_depth")
	mWorkersBusy    = reg.Gauge("sigrecd_workers_busy")
	mBatchContracts = reg.Counter("sigrecd_batch_contracts_total")

	// mTraceContext meters inbound W3C trace-context extraction, one count
	// per recover/batch request: ok (valid traceparent adopted), absent,
	// or malformed (fresh root started instead).
	mTraceContext = NewTraceContextMetric(reg)
)

// NewTraceContextMetric registers the sigrec_trace_context_total family
// with its help text and pre-registers every result label so the series
// appear on the exposition from startup. Exported so the cluster router
// registers the identical family (help text, labels) in its own registry.
func NewTraceContextMetric(r *telemetry.Registry) *telemetry.CounterVec {
	r.SetHelp("sigrec_trace_context_total", "Inbound W3C traceparent extractions by result: ok, absent, or malformed (malformed headers start a fresh trace root)")
	v := r.CounterVec("sigrec_trace_context_total", "result")
	for _, res := range []string{obs.ExtractOK, obs.ExtractAbsent, obs.ExtractMalformed} {
		v.With(res)
	}
	return v
}
