package obs

import (
	"context"
	"testing"
)

// BenchmarkRecoveryTree measures the raw cost of the span machinery for a
// typical traced recovery — the same tree shape the pipeline produces for
// a 10-selector contract (disassemble + dispatch + explore/infer per
// selector, batched attributes). This is the per-contract overhead that
// the E3 tracing gates (TestAllocsE3Tracing, BenchmarkGateE3Tracing)
// bound end to end; iterate here when chasing it down.
func BenchmarkRecoveryTree(b *testing.B) {
	tr := New(Config{})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, rec := tr.StartRecovery(context.Background(), "bench")
		d := rec.Span("disassemble")
		d.SetAttrs(Attr{Key: "code_bytes", Num: 1024}, Attr{Key: "instructions", Num: 512})
		now := rec.NowUS()
		d.EndAt(now)
		s := rec.SpanAt("dispatch", now)
		s.SetAttrs(
			Attr{Key: "paths", Num: 12}, Attr{Key: "steps", Num: 4000},
			Attr{Key: "pruned", Num: 2},
		)
		now = rec.NowUS()
		s.EndAt(now)
		for j := 0; j < 10; j++ {
			e := rec.SpanAt("explore", now)
			e.SetAttrs(
				Attr{Key: "selector", Str: "0xdeadbeef"},
				Attr{Key: "paths", Num: 8}, Attr{Key: "steps", Num: 2000},
				Attr{Key: "pruned", Num: 1},
			)
			now = rec.NowUS()
			e.EndAt(now)
			in := rec.SpanAt("infer", now)
			in.SetAttrs(
				Attr{Key: "selector", Str: "0xdeadbeef"},
				Attr{Key: "params", Num: 2}, Attr{Key: "rule_hits", Num: 5},
			)
			now = rec.NowUS()
			in.EndAt(now)
		}
		rec.Finish(false, nil)
	}
}

// BenchmarkUntracedOverhead measures the off switch: the nil-recovery
// span calls the pipeline makes when tracing is not armed.
func BenchmarkUntracedOverhead(b *testing.B) {
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rec := FromContext(ctx)
		sp := rec.Span("disassemble")
		sp.SetAttrs(Attr{Key: "code_bytes", Num: 1024})
		sp.End()
		rec.Finish(false, nil)
	}
}
