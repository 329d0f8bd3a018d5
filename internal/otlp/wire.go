// Package otlp is a zero-dependency OTLP/HTTP exporter: it maps the
// repo's own observability primitives — internal/obs span trees and the
// internal/telemetry registry — onto the OpenTelemetry protocol's JSON
// encoding and ships them to a collector with a batching, bounded-queue,
// retry-with-backoff sender that never blocks the hot path.
//
// The wire structs below follow the protobuf JSON mapping used by
// opentelemetry-proto: 64-bit integers and nanosecond timestamps are
// encoded as decimal strings, trace/span ids as lowercase hex, and enum
// fields as their numeric values. Only the subset of the schema this repo
// produces is modeled; collectors ignore absent optional fields.
package otlp

// keyValue is one attribute. Exactly one field of anyValue is set.
type keyValue struct {
	Key   string   `json:"key"`
	Value anyValue `json:"value"`
}

type anyValue struct {
	StringValue *string  `json:"stringValue,omitempty"`
	IntValue    *string  `json:"intValue,omitempty"`
	DoubleValue *float64 `json:"doubleValue,omitempty"`
	BoolValue   *bool    `json:"boolValue,omitempty"`
}

func strAttr(k, v string) keyValue {
	return keyValue{Key: k, Value: anyValue{StringValue: &v}}
}

func intAttr(k string, v int64) keyValue {
	s := formatInt(v)
	return keyValue{Key: k, Value: anyValue{IntValue: &s}}
}

func boolAttr(k string, v bool) keyValue {
	return keyValue{Key: k, Value: anyValue{BoolValue: &v}}
}

// resource identifies the producing process (service.name, shard id,
// build info); every span and metric batch carries one.
type resource struct {
	Attributes []keyValue `json:"attributes,omitempty"`
}

type scope struct {
	Name    string `json:"name"`
	Version string `json:"version,omitempty"`
}

// --- traces ---

// tracesRequest is the body of POST /v1/traces
// (ExportTraceServiceRequest).
type tracesRequest struct {
	ResourceSpans []resourceSpans `json:"resourceSpans"`
}

type resourceSpans struct {
	Resource   resource     `json:"resource"`
	ScopeSpans []scopeSpans `json:"scopeSpans"`
}

type scopeSpans struct {
	Scope scope      `json:"scope"`
	Spans []wireSpan `json:"spans"`
}

// Span status codes (status.code enum).
const (
	statusUnset = 0
	statusError = 2
)

// spanKindInternal is the only kind this repo produces.
const spanKindInternal = 1

type spanStatus struct {
	Message string `json:"message,omitempty"`
	Code    int    `json:"code,omitempty"`
}

type wireSpan struct {
	TraceID           string      `json:"traceId"`
	SpanID            string      `json:"spanId"`
	ParentSpanID      string      `json:"parentSpanId,omitempty"`
	Name              string      `json:"name"`
	Kind              int         `json:"kind"`
	StartTimeUnixNano string      `json:"startTimeUnixNano"`
	EndTimeUnixNano   string      `json:"endTimeUnixNano"`
	Attributes        []keyValue  `json:"attributes,omitempty"`
	Status            *spanStatus `json:"status,omitempty"`
}

// --- metrics ---

// metricsRequest is the body of POST /v1/metrics
// (ExportMetricsServiceRequest).
type metricsRequest struct {
	ResourceMetrics []resourceMetrics `json:"resourceMetrics"`
}

type resourceMetrics struct {
	Resource     resource       `json:"resource"`
	ScopeMetrics []scopeMetrics `json:"scopeMetrics"`
}

type scopeMetrics struct {
	Scope   scope        `json:"scope"`
	Metrics []wireMetric `json:"metrics"`
}

// aggregationTemporalityCumulative: every series this repo exports is a
// cumulative-since-process-start stream, matching the Prometheus model
// the registry already implements.
const temporalityCumulative = 2

type wireMetric struct {
	Name        string         `json:"name"`
	Description string         `json:"description,omitempty"`
	Unit        string         `json:"unit,omitempty"`
	Sum         *wireSum       `json:"sum,omitempty"`
	Gauge       *wireGauge     `json:"gauge,omitempty"`
	Histogram   *wireHistogram `json:"histogram,omitempty"`
}

type wireSum struct {
	DataPoints             []numberDataPoint `json:"dataPoints"`
	AggregationTemporality int               `json:"aggregationTemporality"`
	IsMonotonic            bool              `json:"isMonotonic"`
}

type wireGauge struct {
	DataPoints []numberDataPoint `json:"dataPoints"`
}

type numberDataPoint struct {
	Attributes        []keyValue `json:"attributes,omitempty"`
	StartTimeUnixNano string     `json:"startTimeUnixNano"`
	TimeUnixNano      string     `json:"timeUnixNano"`
	AsInt             *string    `json:"asInt,omitempty"`
	AsDouble          *float64   `json:"asDouble,omitempty"`
}

type wireHistogram struct {
	DataPoints             []histogramDataPoint `json:"dataPoints"`
	AggregationTemporality int                  `json:"aggregationTemporality"`
}

type histogramDataPoint struct {
	Attributes        []keyValue `json:"attributes,omitempty"`
	StartTimeUnixNano string     `json:"startTimeUnixNano"`
	TimeUnixNano      string     `json:"timeUnixNano"`
	Count             string     `json:"count"`
	Sum               *float64   `json:"sum,omitempty"`
	// BucketCounts are per-bucket (NOT cumulative) counts, one entry per
	// explicit bound plus the final overflow bucket.
	BucketCounts   []string       `json:"bucketCounts"`
	ExplicitBounds []float64      `json:"explicitBounds"`
	Exemplars      []wireExemplar `json:"exemplars,omitempty"`
}

type wireExemplar struct {
	FilteredAttributes []keyValue `json:"filteredAttributes,omitempty"`
	TimeUnixNano       string     `json:"timeUnixNano"`
	AsDouble           *float64   `json:"asDouble,omitempty"`
}
