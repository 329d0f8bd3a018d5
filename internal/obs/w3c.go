package obs

import (
	"encoding/hex"
	"net/http"
	"strconv"
	"time"

	"sigrec/internal/keccak"
)

// W3C Trace Context header names. http.Header canonicalizes on Set/Get,
// so the lowercase wire form the spec mandates is what Go sends anyway.
const (
	TraceparentHeader = "Traceparent"
	TracestateHeader  = "Tracestate"
)

// maxTracestateLen caps the opaque tracestate value carried through the
// fleet, mirroring the request-id cap: a hostile header must not bloat
// spans or logs.
const maxTracestateLen = 512

// SpanContext is the cross-process identity of a span: the W3C trace id
// (32 lowercase hex), the parent span id (16 lowercase hex), the sampled
// flag, and the opaque tracestate carried through unmodified. The zero
// value is "no remote parent".
type SpanContext struct {
	TraceID string
	SpanID  string
	Sampled bool
	// State is the verbatim tracestate header, propagated opaquely: this
	// repo neither reads nor rewrites vendor entries.
	State string
}

// Valid reports whether the context identifies a span: well-sized ids,
// neither all-zero. Parsed and derived ids always satisfy this; a zero
// SpanContext never does.
func (sc SpanContext) Valid() bool {
	return len(sc.TraceID) == 32 && len(sc.SpanID) == 16 &&
		!allZeroHex(sc.TraceID) && !allZeroHex(sc.SpanID)
}

// Traceparent renders the context in W3C version-00 wire form:
// 00-<traceid>-<spanid>-<flags>.
func (sc SpanContext) Traceparent() string {
	flags := "00"
	if sc.Sampled {
		flags = "01"
	}
	b := make([]byte, 0, 55)
	b = append(b, "00-"...)
	b = append(b, sc.TraceID...)
	b = append(b, '-')
	b = append(b, sc.SpanID...)
	b = append(b, '-')
	b = append(b, flags...)
	return string(b)
}

// ParseTraceparent parses a traceparent header value. ok=false means the
// header is malformed; the policy on malformed input (start a fresh root,
// never error) belongs to the caller. Accepted per the W3C spec: any
// version except ff, lowercase hex only, non-zero trace and parent ids;
// future versions may carry extra dash-separated fields after the flags.
func ParseTraceparent(h string) (SpanContext, bool) {
	if len(h) < 55 {
		return SpanContext{}, false
	}
	if !isLowerHex(h[0:2]) || h[0:2] == "ff" {
		return SpanContext{}, false
	}
	if h[0:2] == "00" && len(h) != 55 {
		return SpanContext{}, false
	}
	if len(h) > 55 && h[55] != '-' {
		return SpanContext{}, false
	}
	if h[2] != '-' || h[35] != '-' || h[52] != '-' {
		return SpanContext{}, false
	}
	tid, sid, flags := h[3:35], h[36:52], h[53:55]
	if !isLowerHex(tid) || !isLowerHex(sid) || !isLowerHex(flags) {
		return SpanContext{}, false
	}
	if allZeroHex(tid) || allZeroHex(sid) {
		return SpanContext{}, false
	}
	f, _ := strconv.ParseUint(flags, 16, 8)
	return SpanContext{TraceID: tid, SpanID: sid, Sampled: f&1 == 1}, true
}

// Extract results — also the label values of the
// sigrec_trace_context_total counter family.
const (
	ExtractOK        = "ok"
	ExtractAbsent    = "absent"
	ExtractMalformed = "malformed"
)

// Extract reads the inbound trace context from request headers under the
// same policy as X-Request-Id sanitization: an absent or malformed header
// yields an invalid SpanContext (the caller starts a fresh root), never an
// error. The second return is the disposition for metering.
func Extract(h http.Header) (SpanContext, string) {
	tp := h.Get(TraceparentHeader)
	if tp == "" {
		return SpanContext{}, ExtractAbsent
	}
	sc, ok := ParseTraceparent(tp)
	if !ok {
		return SpanContext{}, ExtractMalformed
	}
	sc.State = sanitizeTracestate(h.Get(TracestateHeader))
	return sc, ExtractOK
}

// Inject writes the context onto outbound request headers. A context that
// is not Valid injects nothing.
func Inject(h http.Header, sc SpanContext) {
	if !sc.Valid() {
		return
	}
	h.Set(TraceparentHeader, sc.Traceparent())
	if sc.State != "" {
		h.Set(TracestateHeader, sc.State)
	}
}

// sanitizeTracestate keeps a printable-ASCII, length-capped tracestate and
// drops anything else — the value is opaque, but it must be safe to log
// and re-emit.
func sanitizeTracestate(s string) string {
	if len(s) > maxTracestateLen {
		return ""
	}
	for i := 0; i < len(s); i++ {
		if s[i] < 0x20 || s[i] > 0x7e {
			return ""
		}
	}
	return s
}

func isLowerHex(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

func allZeroHex(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] != '0' {
			return false
		}
	}
	return true
}

// --- deterministic id derivation ---

// TraceSeed is the string a recovery's trace id derives from: the request
// id when there is one (every item of one batch request shares it, so
// they land in one trace), the start timestamp otherwise so anonymous
// recoveries stay distinct.
func TraceSeed(requestID string, start time.Time) string {
	if requestID != "" {
		return requestID
	}
	return "anon:" + strconv.FormatInt(start.UnixNano(), 10)
}

// DeriveTraceID maps a seed onto the 16-byte trace id as lowercase hex:
// the keccak the repo already keys everything by, truncated.
// Deterministic, so the same request id maps to the same trace id across
// processes — the router, the shards, and the wide-event log agree on a
// request's trace without coordination.
func DeriveTraceID(seed string) string {
	h := keccak.Sum256([]byte("sigrec/trace:" + seed))
	return hexString(h[:16])
}

// TraceIDFor is the one rule for the trace id a request travels under:
// its valid parent's when a traceparent was adopted, otherwise the
// deterministic derivation from its request id. The tracer's root span,
// the serving layer's wide events, the router's attempts and the scanner
// all resolve it here, so every telemetry surface joins on the same id.
func TraceIDFor(parent SpanContext, requestID string) string {
	if parent.Valid() {
		return parent.TraceID
	}
	return DeriveTraceID(requestID)
}

// DeriveSpanID maps a globally unique name (a router attempt id) onto an
// 8-byte span id as lowercase hex. Because the id is a pure function of
// the name, the router can put it in an outbound traceparent before the
// attempt's span is even finished, and the receiving shard's root span
// parents under it exactly.
func DeriveSpanID(name string) string {
	h := keccak.Sum256([]byte("sigrec/spanid:" + name))
	return hexString(h[:8])
}

// DeriveSpanIDAt derives the span id for the index-th span (preorder) of
// the recovery identified by seed + start time. Purely a function of the
// record, so a re-export or a re-stitch of the same record produces the
// same ids and golden tests stay stable.
func DeriveSpanIDAt(seed string, startNano int64, index int) string {
	buf := make([]byte, 0, len(seed)+24)
	buf = append(buf, "sigrec/span:"...)
	buf = append(buf, seed...)
	buf = appendUint64(buf, uint64(startNano))
	buf = appendUint32(buf, uint32(index))
	h := keccak.Sum256(buf)
	return hexString(h[:8])
}

// hexString is hex.EncodeToString for ids of up to 16 bytes in one
// allocation (EncodeToString costs two).
func hexString(b []byte) string {
	var buf [32]byte
	n := hex.Encode(buf[:], b)
	return string(buf[:n])
}

func appendUint64(b []byte, v uint64) []byte {
	return append(b, byte(v>>56), byte(v>>48), byte(v>>40), byte(v>>32),
		byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}

func appendUint32(b []byte, v uint32) []byte {
	return append(b, byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}
