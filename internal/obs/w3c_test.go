package obs

import (
	"net/http"
	"strings"
	"testing"
	"time"
)

// Well-formed reference ids reused across the tables.
const (
	tpTrace = "4bf92f3577b34da6a3ce929d0e0e4736"
	tpSpan  = "00f067aa0ba902b7"
)

// TestParseTraceparent pins the parser against the W3C edge cases: a
// malformed header must be rejected (the caller then starts a fresh root),
// and every accepted form must carry the exact ids through.
func TestParseTraceparent(t *testing.T) {
	valid := "00-" + tpTrace + "-" + tpSpan + "-01"
	cases := []struct {
		name    string
		in      string
		ok      bool
		sampled bool
	}{
		{"valid sampled", valid, true, true},
		{"valid unsampled", "00-" + tpTrace + "-" + tpSpan + "-00", true, false},
		{"flags high bits ignored", "00-" + tpTrace + "-" + tpSpan + "-fe", true, false},
		{"flags odd means sampled", "00-" + tpTrace + "-" + tpSpan + "-03", true, true},
		{"future version accepted", "01-" + tpTrace + "-" + tpSpan + "-01", true, true},
		{"future version with suffix", "cc-" + tpTrace + "-" + tpSpan + "-01-extra-fields", true, true},
		{"empty", "", false, false},
		{"short", "00-abc-def-01", false, false},
		{"version ff forbidden", "ff-" + tpTrace + "-" + tpSpan + "-01", false, false},
		{"version uppercase", "0A-" + tpTrace + "-" + tpSpan + "-01", false, false},
		{"version non-hex", "zz-" + tpTrace + "-" + tpSpan + "-01", false, false},
		{"version 00 with suffix", valid + "-extra", false, false},
		{"future version bad separator", "01-" + tpTrace + "-" + tpSpan + "-01x", false, false},
		{"uppercase trace id", "00-" + strings.ToUpper(tpTrace) + "-" + tpSpan + "-01", false, false},
		{"uppercase span id", "00-" + tpTrace + "-" + strings.ToUpper(tpSpan) + "-01", false, false},
		{"non-hex trace id", "00-" + tpTrace[:31] + "g-" + tpSpan + "-01", false, false},
		{"all-zero trace id", "00-" + strings.Repeat("0", 32) + "-" + tpSpan + "-01", false, false},
		{"all-zero span id", "00-" + tpTrace + "-0000000000000000-01", false, false},
		{"short trace id", "00-" + tpTrace[:30] + "-" + tpSpan + "-01-x", false, false},
		{"missing dashes", "00_" + tpTrace + "_" + tpSpan + "_01", false, false},
		{"non-hex flags", "00-" + tpTrace + "-" + tpSpan + "-0x", false, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sc, ok := ParseTraceparent(tc.in)
			if ok != tc.ok {
				t.Fatalf("ParseTraceparent(%q) ok = %v, want %v", tc.in, ok, tc.ok)
			}
			if !ok {
				if sc != (SpanContext{}) {
					t.Fatalf("rejected header leaked a context: %+v", sc)
				}
				return
			}
			if sc.TraceID != tpTrace || sc.SpanID != tpSpan {
				t.Fatalf("ids = %s/%s, want %s/%s", sc.TraceID, sc.SpanID, tpTrace, tpSpan)
			}
			if sc.Sampled != tc.sampled {
				t.Fatalf("sampled = %v, want %v", sc.Sampled, tc.sampled)
			}
		})
	}
}

// TestExtract pins the header-level policy: absent and malformed headers
// are dispositions, not errors, and only a parsed header picks up its
// tracestate.
func TestExtract(t *testing.T) {
	mk := func(tp, ts string) http.Header {
		h := http.Header{}
		if tp != "" {
			h.Set(TraceparentHeader, tp)
		}
		if ts != "" {
			h.Set(TracestateHeader, ts)
		}
		return h
	}
	valid := "00-" + tpTrace + "-" + tpSpan + "-01"

	if sc, res := Extract(mk("", "vendor=1")); res != ExtractAbsent || sc.Valid() {
		t.Fatalf("absent: sc=%+v res=%s", sc, res)
	}
	if sc, res := Extract(mk("garbage", "vendor=1")); res != ExtractMalformed || sc.Valid() {
		t.Fatalf("malformed: sc=%+v res=%s", sc, res)
	}
	sc, res := Extract(mk(valid, "vendor=1,other=2"))
	if res != ExtractOK || !sc.Valid() || sc.State != "vendor=1,other=2" {
		t.Fatalf("ok: sc=%+v res=%s", sc, res)
	}
	// Hostile tracestate is dropped, not propagated: control bytes and
	// oversized values must never reach logs or outbound headers.
	if sc, _ := Extract(mk(valid, "evil\x00state")); sc.State != "" {
		t.Fatalf("control-byte tracestate kept: %q", sc.State)
	}
	if sc, _ := Extract(mk(valid, strings.Repeat("x", maxTracestateLen+1))); sc.State != "" {
		t.Fatalf("oversized tracestate kept (%d bytes)", len(sc.State))
	}
}

// TestInjectRoundTrip pins that Inject/Extract are inverses for a valid
// context, and that Inject refuses to emit an invalid one.
func TestInjectRoundTrip(t *testing.T) {
	want := SpanContext{TraceID: tpTrace, SpanID: tpSpan, Sampled: true, State: "vendor=1"}
	h := http.Header{}
	Inject(h, want)
	got, res := Extract(h)
	if res != ExtractOK || got != want {
		t.Fatalf("round trip: got %+v (%s), want %+v", got, res, want)
	}

	h = http.Header{}
	Inject(h, SpanContext{TraceID: "short", SpanID: tpSpan})
	if h.Get(TraceparentHeader) != "" {
		t.Fatalf("invalid context injected: %q", h.Get(TraceparentHeader))
	}
}

// TestDeriveIDs pins the deterministic derivations: stable across calls,
// distinct across seeds, and always well-formed (parseable, non-zero).
func TestDeriveIDs(t *testing.T) {
	tid := DeriveTraceID("client-42")
	if tid != DeriveTraceID("client-42") {
		t.Fatal("DeriveTraceID is not deterministic")
	}
	if tid == DeriveTraceID("client-43") {
		t.Fatal("distinct seeds collided")
	}
	sid := DeriveSpanID("client-42.7")
	sc := SpanContext{TraceID: tid, SpanID: sid, Sampled: true}
	if !sc.Valid() {
		t.Fatalf("derived ids not valid: %+v", sc)
	}
	// TraceIDFor continues a valid parent's trace and otherwise derives.
	if got := TraceIDFor(sc, "other"); got != tid {
		t.Fatalf("TraceIDFor(valid parent) = %q, want the parent's %q", got, tid)
	}
	bad := SpanContext{TraceID: tid, SpanID: "zz"}
	if got := TraceIDFor(bad, "client-43"); got != DeriveTraceID("client-43") {
		t.Fatalf("TraceIDFor(invalid parent) = %q, want the derived id", got)
	}
	if got, ok := ParseTraceparent(sc.Traceparent()); !ok || got.TraceID != tid || got.SpanID != sid {
		t.Fatalf("derived ids did not survive the wire: %+v ok=%v", got, ok)
	}

	if a, b := DeriveSpanIDAt("r", 1, 0), DeriveSpanIDAt("r", 1, 1); a == b {
		t.Fatal("positional span ids collided across indexes")
	}
	if a, b := DeriveSpanIDAt("r", 1, 0), DeriveSpanIDAt("r", 2, 0); a == b {
		t.Fatal("positional span ids collided across start times")
	}

	if TraceSeed("req", time.Unix(0, 5)) != "req" {
		t.Fatal("TraceSeed ignored the request id")
	}
	if TraceSeed("", time.Unix(0, 5)) != "anon:5" {
		t.Fatalf("anonymous seed = %q", TraceSeed("", time.Unix(0, 5)))
	}
}

// TestStartRootParenting pins the remote-parent plumbing end to end: a
// valid parent pins the trace id and parent span id on the finished
// record; an invalid one derives from the request id instead.
func TestStartRootParenting(t *testing.T) {
	tr := New(Config{})
	parent := SpanContext{TraceID: tpTrace, SpanID: tpSpan, Sampled: true}
	_, rec := tr.StartRoot(t.Context(), "recovery", "req-1", parent)
	if rec.TraceID() != tpTrace {
		t.Fatalf("TraceID() = %q, want %q", rec.TraceID(), tpTrace)
	}
	rec.Finish(false, nil)

	_, fresh := tr.StartRoot(t.Context(), "recovery", "req-2", SpanContext{})
	if fresh.TraceID() != DeriveTraceID("req-2") {
		t.Fatalf("fresh root trace id = %q", fresh.TraceID())
	}
	fresh.Finish(false, nil)

	var adopted, derived *Record
	for _, r := range tr.Recorder().Find(tpTrace) {
		adopted = r
	}
	for _, r := range tr.Recorder().Find(DeriveTraceID("req-2")) {
		derived = r
	}
	if adopted == nil || adopted.ParentSpanID != tpSpan {
		t.Fatalf("adopted record = %+v", adopted)
	}
	if derived == nil || derived.ParentSpanID != "" {
		t.Fatalf("derived record = %+v", derived)
	}
}
