package obs

// FlatSpan is one span of a finished recovery flattened with its wire
// identity: the same trace and span ids the OTLP exporter assigns, plus
// wall-clock nanosecond bounds reconstructed from the recovery start and
// the monotonic offsets. It is the unit of cross-process trace assembly
// (GET /debug/trace/{id}): spans from different processes stitch by id
// because both sides derive ids identically from the record.
type FlatSpan struct {
	TraceID      string `json:"trace_id"`
	SpanID       string `json:"span_id"`
	ParentSpanID string `json:"parent_span_id,omitempty"`
	Name         string `json:"name"`
	// Service names the process that produced the span (router, shard id,
	// scanner), set by the stitching layer.
	Service       string `json:"service,omitempty"`
	StartUnixNano int64  `json:"start_unix_nano"`
	EndUnixNano   int64  `json:"end_unix_nano"`
	Attrs         []Attr `json:"attrs,omitempty"`
	Error         string `json:"error,omitempty"`
}

// FlattenRecord flattens one finished record's span tree in preorder,
// which is also the form the OTLP exporter converts to wire spans:
// explicit span ids (SetSpanID) win, every other span derives
// positionally via DeriveSpanIDAt. The root span carries the record-level
// identity attributes (sigrec.request_id, sigrec.event_seq,
// sigrec.truncated) and the record error. Nil-safe.
func FlattenRecord(rec *Record, service string) []FlatSpan {
	if rec == nil || rec.Root == nil {
		return nil
	}
	seed := TraceSeed(rec.RequestID, rec.Start)
	tid := rec.TraceID
	if tid == "" {
		tid = DeriveTraceID(seed)
	}
	f := &flattener{seed: seed, tid: tid, baseNano: rec.Start.UnixNano(), service: service}
	f.walk(rec.Root, rec.ParentSpanID)
	root := &f.out[0]
	// Copy-on-extend: the children share the record's attr slices
	// read-only, but the root gains attrs and must not write into the
	// recovery's backing array.
	attrs := make([]Attr, 0, len(root.Attrs)+3)
	attrs = append(attrs, root.Attrs...)
	if rec.RequestID != "" {
		attrs = append(attrs, Attr{Key: "sigrec.request_id", Str: rec.RequestID})
	}
	if rec.EventSeq != 0 {
		attrs = append(attrs, Attr{Key: "sigrec.event_seq", Num: int64(rec.EventSeq)})
	}
	if rec.Truncated {
		attrs = append(attrs, Attr{Key: "sigrec.truncated", Num: 1})
	}
	root.Attrs = attrs
	root.Error = rec.Error
	return f.out
}

type flattener struct {
	seed     string
	tid      string
	baseNano int64
	service  string
	index    int
	out      []FlatSpan
}

func (f *flattener) walk(s *Span, parentID string) {
	id := s.SpanID
	if id == "" {
		id = DeriveSpanIDAt(f.seed, f.baseNano, f.index)
	}
	f.index++
	start := f.baseNano + s.StartUS*1000
	f.out = append(f.out, FlatSpan{
		TraceID:       f.tid,
		SpanID:        id,
		ParentSpanID:  parentID,
		Name:          s.Name,
		Service:       f.service,
		StartUnixNano: start,
		EndUnixNano:   start + s.DurUS*1000,
		Attrs:         s.Attrs,
	})
	for _, c := range s.Children {
		f.walk(c, id)
	}
}
