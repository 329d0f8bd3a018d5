// Package eventlog is the durable observability pipeline of the recovery
// service: one wide event — a single flat record carrying everything worth
// knowing about one contract recovery — is emitted per recovery into an
// async, bounded, never-blocks-the-hot-path NDJSON writer with size-based
// rotation and tail-based sampling (errors and truncations are always
// kept, the slowest recoveries are kept via a decaying threshold, and the
// fast bulk is sampled probabilistically). The log outlives the process,
// so corpus-scale questions — which rule dominates p99, what last night's
// truncation spike looked like — are answered offline by cmd/sigrec-analyze
// replaying the segments, instead of by whatever metrics happened to be
// scraped.
package eventlog

import (
	"context"
	"encoding/json"
	"slices"
	"strconv"
)

// Event is one wide event: the full story of one contract recovery as a
// flat record. Every field is denormalized onto the event so a log line
// is analyzable on its own — no joins against other telemetry needed
// (the request id is the optional bridge back to logs and span trees).
type Event struct {
	// Seq is the writer-assigned sequence number, unique per process run
	// and ascending in emission order; traces reference it as event_seq.
	Seq uint64 `json:"seq"`
	// TS is the emission time in Unix microseconds.
	TS int64 `json:"ts"`
	// Kind discriminates auxiliary records (e.g. "flight_recorder" dumps on
	// drain) from recovery events, which leave it empty.
	Kind string `json:"kind,omitempty"`
	// RequestID joins the event to access logs, span trees, and the
	// flight recorder.
	RequestID string `json:"request_id,omitempty"`
	// TraceID is the 32-hex W3C trace id of the request that triggered
	// this recovery — the cross-process join key: merged event logs from
	// the router's shards reconstruct a distributed trace by grouping on
	// it (sigrec-analyze -trace).
	TraceID string `json:"trace_id,omitempty"`

	// DurUS is the whole-recovery latency; QueueUS the admission-queue
	// wait before a worker picked the job up (serving layer only); the
	// remaining *US fields are per-phase durations. ExploreUS and InferUS
	// sum over all selectors. All microseconds.
	DurUS      int64 `json:"dur_us"`
	QueueUS    int64 `json:"queue_us,omitempty"`
	DisasmUS   int64 `json:"disasm_us,omitempty"`
	DispatchUS int64 `json:"dispatch_us,omitempty"`
	ExploreUS  int64 `json:"explore_us,omitempty"`
	InferUS    int64 `json:"infer_us,omitempty"`

	// CodeBytes is the input size; Selectors the dispatcher yield;
	// Functions the recovered-signature count.
	CodeBytes int `json:"code_bytes,omitempty"`
	Selectors int `json:"selectors,omitempty"`
	Functions int `json:"functions,omitempty"`

	// Paths/Steps/Pruned aggregate the TASE exploration counters over the
	// dispatcher walk and every per-selector trace.
	Paths  int64 `json:"paths,omitempty"`
	Steps  int64 `json:"steps,omitempty"`
	Pruned int64 `json:"pruned,omitempty"`
	// InternHitPermille is the hash-consing hit rate across the recovery.
	InternHitPermille int64 `json:"intern_hit_permille,omitempty"`

	// RuleFires is the per-recovery rule-fire vector ("R11" -> count),
	// zero-count rules omitted — the live slice of the paper's Fig. 19.
	RuleFires RuleFires `json:"rule_fires,omitempty"`

	// Truncated/TruncCause report a hit exploration budget; Cache is the
	// disposition ("hit" when the pipeline-level result cache answered
	// without this call computing: a memory or disk hit, or a wait on a
	// concurrent caller's recovery of the same bytecode); Error is the
	// recovery error, if any.
	Truncated  bool   `json:"truncated,omitempty"`
	TruncCause string `json:"trunc_cause,omitempty"`
	Cache      string `json:"cache,omitempty"`
	Error      string `json:"error,omitempty"`

	// internHits/internMisses accumulate during the recovery and fold into
	// InternHitPermille at emission; not serialized.
	internHits   uint64
	internMisses uint64
	// auxData carries the pre-marshaled payload of an auxiliary record
	// (Kind != ""); the writer splices it under "data". Not serialized by
	// the struct tags — encodeLine handles aux records by hand.
	auxData []byte
	// syncCh marks a barrier pseudo-event (see Writer.Sync): the writer
	// goroutine flushes + fsyncs and replies on the channel instead of
	// encoding anything. Not serialized.
	syncCh chan error
}

// RuleFires maps rule names ("R11") to fire counts. It encodes exactly as
// encoding/json encodes a map[string]uint64 (keys sorted), but without the
// reflection, which allocates for every key and value it visits.
type RuleFires map[string]uint64

// MarshalJSON implements json.Marshaler.
func (m RuleFires) MarshalJSON() ([]byte, error) {
	var buf [32]string
	keys := buf[:0]
	for k := range m {
		if !plainKey(k) {
			return json.Marshal(map[string]uint64(m))
		}
		keys = append(keys, k)
	}
	slices.Sort(keys)
	b := make([]byte, 0, 2+len(keys)*12)
	b = append(b, '{')
	for i, k := range keys {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, '"')
		b = append(b, k...)
		b = append(b, '"', ':')
		b = strconv.AppendUint(b, m[k], 10)
	}
	return append(b, '}'), nil
}

// plainKey reports whether k is ASCII letters and digits only, which JSON
// quotes verbatim.
func plainKey(k string) bool {
	for i := 0; i < len(k); i++ {
		c := k[i]
		if !('0' <= c && c <= '9' || 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z') {
			return false
		}
	}
	return true
}

// AddIntern accumulates one exploration's interner counters; the hit rate
// is folded into InternHitPermille when the event is finalized.
func (e *Event) AddIntern(hits, misses uint64) {
	e.internHits += hits
	e.internMisses += misses
}

// Finalize computes the derived fields (currently the intern hit rate).
// The writer calls it on Emit; callers building events by hand for tests
// may call it directly.
func (e *Event) Finalize() {
	if total := e.internHits + e.internMisses; total > 0 {
		e.InternHitPermille = int64(e.internHits * 1000 / total)
	}
}

// Scope carries the serving layer's contribution to a recovery's wide
// event — the request id and the admission-queue wait — down the context
// into the pipeline, which owns event construction. One Scope is armed
// per recovery (batch items each arm their own).
type Scope struct {
	// RequestID tags the event with the request that triggered the
	// recovery.
	RequestID string
	// TraceID tags the event with the request's W3C trace id (adopted
	// from the inbound traceparent or derived from the request id), set by
	// the serving layer alongside the request id.
	TraceID string
	// QueueUS is the admission wait, set by the worker that picks the job
	// up before the recovery runs (same-goroutine ordering, no atomics
	// needed).
	QueueUS int64
}

type scopeKey struct{}

// NewContext arms ctx with a fresh Scope for one recovery.
func NewContext(ctx context.Context, requestID string) (context.Context, *Scope) {
	sc := &Scope{RequestID: requestID}
	return context.WithValue(ctx, scopeKey{}, sc), sc
}

// ScopeFromContext returns the armed scope, or nil.
func ScopeFromContext(ctx context.Context) *Scope {
	sc, _ := ctx.Value(scopeKey{}).(*Scope)
	return sc
}
