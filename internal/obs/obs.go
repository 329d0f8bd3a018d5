// Package obs is the observability layer of the recovery pipeline: a
// dependency-free, allocation-conscious span tracer that records one tree
// of timed spans per contract recovery (disassemble → dispatch → per-
// selector explore/infer), plus a fixed-size flight recorder retaining the
// slowest and all budget-truncated recoveries for post-hoc inspection
// (GET /debug/slowest on sigrecd, `sigrec -trace` on the CLI).
//
// Tracing is opt-in per recovery and zero-cost when off: every method on
// *Tracer, *Recovery, and *Span is nil-safe, so the pipeline calls them
// unconditionally and an untraced recovery pays one context lookup plus a
// handful of nil checks. Span timestamps come from the monotonic clock
// (offsets from the recovery's start), so trees are immune to wall-clock
// steps.
//
// Concurrency contract: a Recovery is single-writer. All span operations
// and the Finish call must come from one goroutine at a time (sequential
// handoff — e.g. handler to pooled worker over a channel — is fine). The
// serving layer upholds this by finishing each recovery on the worker
// that ran it. Finish flips an atomic flag that turns every later span
// operation into a no-op, so a finished tree is immutable even if a stale
// caller still holds a span; the flight recorder's lock publishes the
// finished tree to concurrent readers.
package obs

import (
	"context"
	"fmt"
	"io"
	"strings"
	"sync/atomic"
	"time"
)

// Attr is one key/value span attribute. Exactly one of Str and Num is
// meaningful; string attributes set Str, integer attributes leave it empty.
// Typed fields (rather than `any`) keep attribute recording box-free.
type Attr struct {
	Key string `json:"k"`
	Str string `json:"s,omitempty"`
	Num int64  `json:"n,omitempty"`
}

// Span is one timed phase of a recovery. Offsets and durations are
// microseconds relative to the owning recovery's start, taken from the
// monotonic clock.
type Span struct {
	Name    string `json:"name"`
	StartUS int64  `json:"start_us"`
	DurUS   int64  `json:"dur_us"`
	// SpanID, when set via SetSpanID, pins this span's wire id (16 hex)
	// instead of the positional derivation — used for spans whose id must
	// be known cross-process before export, like router attempt spans
	// whose id travels in the outbound traceparent.
	SpanID   string  `json:"span_id,omitempty"`
	Attrs    []Attr  `json:"attrs,omitempty"`
	Children []*Span `json:"children,omitempty"`

	rec *Recovery
}

// Span opens a child span. Nil-safe: a nil receiver (tracing off) returns
// nil, and so does a span whose recovery has already finished, which keeps
// recorded trees immutable.
func (s *Span) Span(name string) *Span {
	if s == nil || s.rec.finished.Load() {
		return nil
	}
	r := s.rec
	c := r.alloc()
	c.Name, c.StartUS, c.rec = name, r.sinceUS(), r
	s.Children = append(s.Children, c)
	return c
}

// End closes the span, fixing its duration. Nil-safe; idempotent enough
// (a second End overwrites the duration with a later one).
func (s *Span) End() {
	if s == nil || s.rec.finished.Load() {
		return
	}
	s.DurUS = s.rec.sinceUS() - s.StartUS
}

// EndAt is End with a caller-supplied timestamp from Recovery.NowUS, so a
// phase boundary (one span ends, the next starts) costs one clock read
// instead of two. Nil-safe.
func (s *Span) EndAt(nowUS int64) {
	if s == nil || s.rec.finished.Load() {
		return
	}
	s.DurUS = nowUS - s.StartUS
}

// SetInt attaches an integer attribute. Nil-safe.
func (s *Span) SetInt(key string, v int64) {
	if s == nil || s.rec.finished.Load() {
		return
	}
	s.Attrs = append(s.Attrs, Attr{Key: key, Num: v})
}

// SetStr attaches a string attribute. Nil-safe.
func (s *Span) SetStr(key, v string) {
	if s == nil || s.rec.finished.Load() {
		return
	}
	s.Attrs = append(s.Attrs, Attr{Key: key, Str: v})
}

// SetSpanID pins the span's wire id (16 lowercase hex, typically from
// DeriveSpanID). Nil-safe.
func (s *Span) SetSpanID(id string) {
	if s == nil || s.rec.finished.Load() {
		return
	}
	s.SpanID = id
}

// SetAttrs attaches several attributes in one call — the traced hot path
// batches its per-phase counters through this so instrumentation costs
// one call per phase. The variadic slice is adopted when the span has no
// attributes yet (the common case), so callers must not reuse it.
// Nil-safe.
func (s *Span) SetAttrs(attrs ...Attr) {
	if s == nil || s.rec.finished.Load() {
		return
	}
	if s.Attrs == nil {
		s.Attrs = attrs
		return
	}
	s.Attrs = append(s.Attrs, attrs...)
}

// Recovery is the span tree of one contract recovery in progress. Create
// with Tracer.StartRecovery, close with Finish. A Recovery is single-
// writer (see the package comment): the goroutine running the recovery
// owns all span mutation and the Finish call. The atomic finished flag
// turns every span operation into a no-op after Finish, so a recorded
// tree stays immutable even if a stale caller still holds a span.
type Recovery struct {
	tracer    *Tracer
	requestID string
	start     time.Time
	// traceID is the 32-hex trace this recovery belongs to: adopted from
	// the remote parent when StartRoot got a valid SpanContext, derived
	// from the request id otherwise ("" for anonymous recoveries until
	// Finish derives one from the start timestamp).
	traceID string
	// parentSpanID is the remote parent's span id (16 hex) when this tree
	// continues a trace started in another process, "" for local roots.
	parentSpanID string
	// eventSeq is the wide-event log sequence number of this recovery's
	// event, when an event log is configured — the join key from a span
	// tree back to the durable log. Set by the pipeline before Finish.
	eventSeq uint64

	finished atomic.Bool
	Root     Span
	// slab backs child spans in chunks so a recovery with a dozen spans
	// costs one allocation, not twelve. Chunks stay alive as long as any
	// retained record points into them, which is exactly the records'
	// lifetime.
	slab []Span
}

// spanSlabChunk is the spans-per-allocation granularity; a typical
// recovery (disassemble + dispatch + a few selectors x explore/infer)
// fits in one chunk.
const spanSlabChunk = 16

// alloc hands out one span from the slab.
func (r *Recovery) alloc() *Span {
	if len(r.slab) == cap(r.slab) {
		r.slab = make([]Span, 0, spanSlabChunk)
	}
	r.slab = r.slab[:len(r.slab)+1]
	return &r.slab[len(r.slab)-1]
}

// sinceUS is the monotonic offset from the recovery start.
func (r *Recovery) sinceUS() int64 { return time.Since(r.start).Microseconds() }

// RequestID returns the ID the recovery was started with.
func (r *Recovery) RequestID() string {
	if r == nil {
		return ""
	}
	return r.requestID
}

// TraceID returns the recovery's 32-hex trace id — adopted from the
// remote parent or derived from the request id — for injecting outbound
// trace context mid-flight. Nil-safe; "" for anonymous recoveries (their
// id is only fixed at Finish).
func (r *Recovery) TraceID() string {
	if r == nil {
		return ""
	}
	return r.traceID
}

// Span opens a child of the root span. Nil-safe.
func (r *Recovery) Span(name string) *Span {
	if r == nil {
		return nil
	}
	return r.Root.Span(name)
}

// NowUS reads the monotonic clock once, for sharing one timestamp between
// an EndAt and a SpanAt at a phase boundary. Nil-safe (returns 0).
func (r *Recovery) NowUS() int64 {
	if r == nil {
		return 0
	}
	return r.sinceUS()
}

// SpanAt is Span with a caller-supplied start timestamp from NowUS.
// Nil-safe.
func (r *Recovery) SpanAt(name string, nowUS int64) *Span {
	if r == nil || r.finished.Load() {
		return nil
	}
	c := r.alloc()
	c.Name, c.StartUS, c.rec = name, nowUS, r
	r.Root.Children = append(r.Root.Children, c)
	return c
}

// SetInt attaches an integer attribute to the root span. Nil-safe.
func (r *Recovery) SetInt(key string, v int64) {
	if r == nil {
		return
	}
	r.Root.SetInt(key, v)
}

// SetStr attaches a string attribute to the root span. Nil-safe.
func (r *Recovery) SetStr(key, v string) {
	if r == nil {
		return
	}
	r.Root.SetStr(key, v)
}

// SetEventSeq records the recovery's wide-event log sequence number, so
// the flight-recorder record and the trace text carry the offset needed
// to pull the full event line back out of the log. Nil-safe.
func (r *Recovery) SetEventSeq(seq uint64) {
	if r == nil || r.finished.Load() {
		return
	}
	r.eventSeq = seq
}

// Finish closes the recovery: the root span's duration is fixed, further
// span operations become no-ops, and the tree is offered to the tracer's
// flight recorder (kept when truncated or among the slowest). err of nil
// — or an error the caller considers a legitimate outcome — records no
// error string. Nil-safe; only the first Finish takes effect.
func (r *Recovery) Finish(truncated bool, err error) {
	if r == nil || !r.finished.CompareAndSwap(false, true) {
		return
	}
	r.Root.DurUS = r.sinceUS()
	tid := r.traceID
	if tid == "" {
		tid = DeriveTraceID(TraceSeed(r.requestID, r.start))
	}
	rec := &Record{
		RequestID:    r.requestID,
		TraceID:      tid,
		ParentSpanID: r.parentSpanID,
		EventSeq:     r.eventSeq,
		Start:        r.start,
		DurUS:        r.Root.DurUS,
		Truncated:    truncated,
		Root:         &r.Root,
	}
	if err != nil {
		rec.Error = err.Error()
	}
	r.tracer.fr.add(rec)
	if r.tracer.sink != nil {
		r.tracer.sink(rec)
	}
}

// WriteText renders the recovery's span tree as indented text, one span
// per line with its duration and attributes, headed by the request id and
// (when an event log is configured) the wide-event sequence number that
// locates this recovery's full record in the log. Nil-safe.
func (r *Recovery) WriteText(w io.Writer) {
	if r == nil {
		return
	}
	if r.requestID != "" || r.eventSeq != 0 {
		var b strings.Builder
		if r.requestID != "" {
			b.WriteString("request_id=")
			b.WriteString(r.requestID)
		}
		if r.eventSeq != 0 {
			if b.Len() > 0 {
				b.WriteByte(' ')
			}
			fmt.Fprintf(&b, "event_seq=%d", r.eventSeq)
		}
		b.WriteByte('\n')
		io.WriteString(w, b.String())
	}
	writeSpanText(w, &r.Root, 0)
}

func writeSpanText(w io.Writer, s *Span, depth int) {
	var b strings.Builder
	b.WriteString(strings.Repeat("  ", depth))
	b.WriteString(s.Name)
	fmt.Fprintf(&b, " %.3fms", float64(s.DurUS)/1000)
	for _, a := range s.Attrs {
		if a.Str != "" {
			fmt.Fprintf(&b, " %s=%s", a.Key, a.Str)
		} else {
			fmt.Fprintf(&b, " %s=%d", a.Key, a.Num)
		}
	}
	b.WriteByte('\n')
	io.WriteString(w, b.String())
	for _, c := range s.Children {
		writeSpanText(w, c, depth+1)
	}
}

// Config sizes a Tracer. The zero value selects the defaults.
type Config struct {
	// Slowest is how many of the slowest recoveries the flight recorder
	// retains (<= 0 selects DefaultSlowest).
	Slowest int
	// Truncated is how many recent budget-truncated recoveries the flight
	// recorder retains (<= 0 selects DefaultTruncated).
	Truncated int
	// Sink, when non-nil, receives every finished recovery record (not
	// just the ones the flight recorder retains) — the OTLP exporter's
	// intake. It runs on the goroutine calling Finish, so it must be
	// non-blocking; the record and its span tree are immutable once
	// delivered.
	Sink func(*Record)
}

// Flight-recorder defaults.
const (
	DefaultSlowest   = 16
	DefaultTruncated = 32
)

// Tracer creates per-recovery span trees and owns the flight recorder. A
// nil *Tracer is the off switch: StartRecovery passes the context through
// untouched and returns a nil Recovery, making the whole span API no-op.
type Tracer struct {
	fr   *FlightRecorder
	sink func(*Record)
}

// New returns a Tracer with a flight recorder sized by cfg.
func New(cfg Config) *Tracer {
	if cfg.Slowest <= 0 {
		cfg.Slowest = DefaultSlowest
	}
	if cfg.Truncated <= 0 {
		cfg.Truncated = DefaultTruncated
	}
	return &Tracer{fr: newFlightRecorder(cfg.Slowest, cfg.Truncated), sink: cfg.Sink}
}

// StartRecovery opens a recovery span tree and arms the context with it so
// the pipeline (core.RecoverContext) attaches its phase spans. requestID
// ties the trace to log lines and the flight-recorder entry. Nil-safe: a
// nil tracer returns (ctx, nil) unchanged.
func (t *Tracer) StartRecovery(ctx context.Context, requestID string) (context.Context, *Recovery) {
	return t.StartRoot(ctx, "recovery", requestID, SpanContext{})
}

// StartRoot is the general form of StartRecovery: it names the root span
// and optionally continues a trace started in another process. A valid
// parent pins the trace id and records the remote span as the exported
// root's parent — this is how a shard recovery nests under the router
// attempt span that carried its traceparent. An invalid parent (the zero
// SpanContext, or a malformed inbound header) starts a fresh root whose
// trace id derives from the request id. Nil-safe: a nil tracer returns
// (ctx, nil) unchanged.
func (t *Tracer) StartRoot(ctx context.Context, name, requestID string, parent SpanContext) (context.Context, *Recovery) {
	if t == nil {
		return ctx, nil
	}
	r := &Recovery{tracer: t, requestID: requestID, start: time.Now()}
	if parent.Valid() {
		r.parentSpanID = parent.SpanID
	}
	// An anonymous fresh root gets its trace id at Finish, seeded by its
	// start time (TraceSeed).
	if parent.Valid() || requestID != "" {
		r.traceID = TraceIDFor(parent, requestID)
	}
	// The root fans out to every per-selector span pair, so pre-size its
	// child list past append's 1/2/4 growth steps.
	r.Root = Span{Name: name, rec: r, Children: make([]*Span, 0, 12)}
	return context.WithValue(ctx, recoveryKey{}, r), r
}

// Recorder returns the tracer's flight recorder. Nil-safe (returns nil).
func (t *Tracer) Recorder() *FlightRecorder {
	if t == nil {
		return nil
	}
	return t.fr
}

type recoveryKey struct{}

// FromContext returns the recovery armed on the context, or nil. This is
// the pipeline's single per-recovery tracing cost when tracing is off.
func FromContext(ctx context.Context) *Recovery {
	r, _ := ctx.Value(recoveryKey{}).(*Recovery)
	return r
}
