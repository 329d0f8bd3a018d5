package otlp

import (
	"strconv"

	"sigrec/internal/obs"
)

// formatInt renders an int64 the way the protobuf JSON mapping requires
// (decimal string).
func formatInt(v int64) string { return strconv.FormatInt(v, 10) }

func formatUint(v uint64) string { return strconv.FormatUint(v, 10) }

// Trace and span ids are derived deterministically in internal/obs
// (obs.TraceSeed / obs.DeriveTraceID / obs.DeriveSpanIDAt): recoveries
// that share a request id — every item of one batch request — share a
// trace, anonymous recoveries fall back to their start timestamp, and
// the same derivation backs GET /debug/trace stitching, so the exported
// tree and the stitched tree agree span-for-span. Records finished under
// a remote parent (an inbound traceparent) carry their adopted TraceID
// and ParentSpanID; spans with a pinned id (obs.SetSpanID — router
// attempt spans whose id travels in the outbound traceparent) keep it.

// spansFromRecord converts one finished recovery's span tree, as
// obs.FlattenRecord flattens it, into OTLP wire spans: the same preorder
// ids (root first, which the reconciliation e2e counts on — span index 0
// of a batch item is its root), wall-clock bounds and root identity
// attributes. The wire form carries the truncation flag as a boolean and
// the record error as the root's span status.
func spansFromRecord(rec *obs.Record) []wireSpan {
	flat := obs.FlattenRecord(rec, "")
	out := make([]wireSpan, len(flat))
	for i, s := range flat {
		ws := wireSpan{
			TraceID:           s.TraceID,
			SpanID:            s.SpanID,
			ParentSpanID:      s.ParentSpanID,
			Name:              s.Name,
			Kind:              spanKindInternal,
			StartTimeUnixNano: formatInt(s.StartUnixNano),
			EndTimeUnixNano:   formatInt(s.EndUnixNano),
		}
		for _, a := range s.Attrs {
			switch {
			case a.Str != "":
				ws.Attributes = append(ws.Attributes, strAttr(a.Key, a.Str))
			case a.Key == "sigrec.truncated":
				ws.Attributes = append(ws.Attributes, boolAttr(a.Key, true))
			default:
				ws.Attributes = append(ws.Attributes, intAttr(a.Key, a.Num))
			}
		}
		if s.Error != "" {
			ws.Status = &spanStatus{Code: statusError, Message: s.Error}
		}
		out[i] = ws
	}
	return out
}

// buildTracesRequest wraps the spans of a batch of records in one
// ResourceSpans envelope under the exporter's resource identity.
func buildTracesRequest(res resource, sc scope, recs []*obs.Record) (tracesRequest, int) {
	var spans []wireSpan
	for _, rec := range recs {
		spans = append(spans, spansFromRecord(rec)...)
	}
	req := tracesRequest{ResourceSpans: []resourceSpans{{
		Resource:   res,
		ScopeSpans: []scopeSpans{{Scope: sc, Spans: spans}},
	}}}
	return req, len(spans)
}
