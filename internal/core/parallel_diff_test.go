package core

import (
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"sigrec/internal/corpus"
	"sigrec/internal/eventlog"
	"sigrec/internal/obs"
)

// parallelDiffCorpus builds the differential corpus: the mixed
// single-function corpus plus a handful of synthesized 10-function
// contracts so the parallel path actually fans out (the fan-out is
// per selector, so multi-selector dispatchers are the interesting case).
func parallelDiffCorpus(t *testing.T) [][]byte {
	t.Helper()
	c, err := corpus.Generate(corpus.Config{
		Seed:           321,
		Solidity:       30,
		Vyper:          8,
		AmbiguityRate:  0.15,
		ConversionRate: 0.05,
		AsmReadRate:    0.05,
		StorageRefRate: 0.05,
		MaxParams:      4,
	})
	if err != nil {
		t.Fatalf("corpus: %v", err)
	}
	var codes [][]byte
	for _, e := range c.Entries {
		codes = append(codes, e.Code)
	}
	return append(codes, synthContracts(t, 6)...)
}

// synthContracts returns the first n distinct 10-function contracts of
// synthesized dataset seed 7.
func synthContracts(tb testing.TB, n int) [][]byte {
	tb.Helper()
	synth, err := corpus.GenerateSynthesized(7)
	if err != nil {
		tb.Fatalf("synthesized corpus: %v", err)
	}
	return distinctCodes(synth)[:n]
}

// runDiffRecovery runs one traced, event-logged recovery and returns
// everything externally observable: the rendered result + error, the
// rule-fire counter deltas, the normalized wide events, and the span-tree
// structure.
func runDiffRecovery(t *testing.T, code []byte, workers int, dir string) (render, rules, events, spans string) {
	t.Helper()
	path := filepath.Join(dir, fmt.Sprintf("events-%d.ndjson", workers))
	w, err := eventlog.New(eventlog.Config{Path: path})
	if err != nil {
		t.Fatal(err)
	}
	tracer := obs.New(obs.Config{})
	ctx, rec := tracer.StartRecovery(context.Background(), fmt.Sprintf("diff-%d", workers))
	before := ruleFireTotals()
	res, rerr := RecoverContext(ctx, code, Options{workers: workers, EventLog: w})
	rec.Finish(res.Truncated, rerr)
	render = renderResult(res, rerr)
	rules = diffRuleFires(before, ruleFireTotals())
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	evs, skipped, err := eventlog.ReadLog(path)
	if err != nil {
		t.Fatal(err)
	}
	if skipped != 0 {
		t.Fatalf("%d undecodable event lines", skipped)
	}
	var b strings.Builder
	for _, ev := range evs {
		// Zero the nondeterministic fields (sequence and wall-clock
		// timings); every counter field must match exactly.
		ev.Seq, ev.TS, ev.DurUS, ev.QueueUS = 0, 0, 0, 0
		ev.DisasmUS, ev.DispatchUS, ev.ExploreUS, ev.InferUS = 0, 0, 0, 0
		ev.RequestID = ""
		fmt.Fprintf(&b, "%+v\n", ev)
	}
	events = b.String()
	spans = renderSpanTree(&rec.Root)
	return render, rules, events, spans
}

func ruleFireTotals() map[string]uint64 {
	out := make(map[string]uint64, NumRules)
	for r := 1; r <= NumRules; r++ {
		out[RuleID(r).String()] = mRuleFired[r].Load()
	}
	return out
}

func diffRuleFires(before, after map[string]uint64) string {
	var b strings.Builder
	for r := 1; r <= NumRules; r++ {
		name := RuleID(r).String()
		if d := after[name] - before[name]; d > 0 {
			fmt.Fprintf(&b, "%s=%d ", name, d)
		}
	}
	return b.String()
}

// renderSpanTree serializes span names, order, and attributes — everything
// structural — while ignoring the timestamps, which legitimately differ
// between runs.
func renderSpanTree(s *obs.Span, depth ...int) string {
	d := 0
	if len(depth) > 0 {
		d = depth[0]
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%*s%s", d*2, "", s.Name)
	for _, a := range s.Attrs {
		if a.Str != "" {
			fmt.Fprintf(&b, " %s=%s", a.Key, a.Str)
		} else {
			fmt.Fprintf(&b, " %s=%d", a.Key, a.Num)
		}
	}
	b.WriteByte('\n')
	for _, c := range s.Children {
		b.WriteString(renderSpanTree(c, d+1))
	}
	return b.String()
}

// TestParallelDifferential proves per-selector parallelism is purely an
// optimization: with 1 worker vs 4, recovery must produce
// identical Results, identical rule-fire counter deltas, identical wide
// events (up to timing), and identical span-tree structure over the whole
// corpus. Run under -race this also audits the fan-out for data races.
func TestParallelDifferential(t *testing.T) {
	codes := parallelDiffCorpus(t)
	dir := t.TempDir()
	multi := 0
	for i, code := range codes {
		cdir := filepath.Join(dir, fmt.Sprintf("c%d", i))
		seqRender, seqRules, seqEvents, seqSpans := runDiffRecovery(t, code, 1, t.TempDir())
		parRender, parRules, parEvents, parSpans := runDiffRecovery(t, code, 4, cdir)
		if seqRender != parRender {
			t.Fatalf("contract %d: result diverges\nsequential:\n%s\nparallel:\n%s", i, seqRender, parRender)
		}
		if seqRules != parRules {
			t.Fatalf("contract %d: rule-fire deltas diverge\nsequential: %s\nparallel: %s", i, seqRules, parRules)
		}
		if seqEvents != parEvents {
			t.Fatalf("contract %d: wide events diverge\nsequential:\n%s\nparallel:\n%s", i, seqEvents, parEvents)
		}
		if seqSpans != parSpans {
			t.Fatalf("contract %d: span trees diverge\nsequential:\n%s\nparallel:\n%s", i, seqSpans, parSpans)
		}
		if strings.Count(seqSpans, "explore") >= 4 {
			multi++
		}
	}
	// Guard against the corpus silently degenerating to single-selector
	// contracts, which would leave the fan-out untested.
	if multi < 3 {
		t.Fatalf("only %d contracts had >= 4 selectors; parallel coverage too thin", multi)
	}
}

// TestSelectorWorkersResolution pins the fan-out rule: the engine runs
// min(GOMAXPROCS, selectors) workers, never more than either and never
// fewer than one, so one selector or GOMAXPROCS=1 is sequential. The
// package-internal override is clamped the same way.
func TestSelectorWorkersResolution(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	cases := []struct {
		procs, override, selectors, want int
	}{
		{1, 0, 10, 1},
		{1, 0, 1, 1},
		{4, 0, 10, 4},
		{4, 0, 2, 2},
		{4, 0, 1, 1},
		{4, 0, 0, 1},
		{2, 0, 1 << 20, 2},
		{2, 1, 10, 1},
		{2, 4, 10, 4},
		{2, 4, 3, 3},
	}
	for _, c := range cases {
		runtime.GOMAXPROCS(c.procs)
		if got := (Options{workers: c.override}).selectorWorkers(c.selectors); got != c.want {
			t.Errorf("GOMAXPROCS=%d override=%d: selectorWorkers(%d) = %d, want %d",
				c.procs, c.override, c.selectors, got, c.want)
		}
	}
}

// benchE3Parallel recovers 8 ten-function contracts end to end. Off
// (workers=1) runs the worker body inline; On leaves the fan-out to the engine
// (min(GOMAXPROCS, selectors)). `make bench-gate` requires On to be at
// least 2x faster than Off on machines with >=4 cores; on fewer cores the
// pair still records the overhead of the pool itself.
func benchE3Parallel(b *testing.B, workers int) {
	codes := synthContracts(b, 8)
	opts := Options{workers: workers}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, code := range codes {
			res, err := RecoverContext(context.Background(), code, opts)
			if err != nil || len(res.Functions) == 0 {
				b.Fatal("recovery failed")
			}
		}
	}
}

func BenchmarkE3ParallelOff(b *testing.B) { benchE3Parallel(b, 1) }
func BenchmarkE3ParallelOn(b *testing.B)  { benchE3Parallel(b, 0) }
