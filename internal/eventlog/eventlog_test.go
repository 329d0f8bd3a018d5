package eventlog

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"sigrec/internal/telemetry"
)

// TestWriterRoundTrip emits events, closes, and reads them back.
func TestWriterRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "events.ndjson")
	reg := telemetry.NewRegistry()
	w, err := New(Config{Path: path, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	var seqs []uint64
	for i := 0; i < 10; i++ {
		ev := &Event{RequestID: fmt.Sprintf("req-%d", i), DurUS: int64(100 * (i + 1)), Functions: 2}
		seqs = append(seqs, w.Emit(ev))
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	for i, s := range seqs {
		if s != uint64(i+1) {
			t.Fatalf("seq[%d] = %d, want %d", i, s, i+1)
		}
	}
	events, skipped, err := ReadLog(path)
	if err != nil {
		t.Fatal(err)
	}
	if skipped != 0 || len(events) != 10 {
		t.Fatalf("read %d events (%d skipped), want 10/0", len(events), skipped)
	}
	if events[3].RequestID != "req-3" || events[3].DurUS != 400 {
		t.Fatalf("event 3 = %+v", events[3])
	}
	if got := reg.Counter("sigrec_events_written_total").Load(); got != 10 {
		t.Fatalf("written counter = %d, want 10", got)
	}
}

// TestWriterRotation forces rotation with a tiny MaxBytes and checks the
// segment layout plus a full multi-segment replay in order.
func TestWriterRotation(t *testing.T) {
	path := filepath.Join(t.TempDir(), "events.ndjson")
	reg := telemetry.NewRegistry()
	w, err := New(Config{Path: path, MaxBytes: 256, MaxSegments: 3, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	const n = 50
	for i := 0; i < n; i++ {
		w.Emit(&Event{RequestID: fmt.Sprintf("req-%03d", i), DurUS: 100})
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	segs := Segments(path)
	if len(segs) < 2 {
		t.Fatalf("expected rotation, got segments %v", segs)
	}
	if len(segs) > 4 { // 3 rotated + active
		t.Fatalf("MaxSegments=3 not enforced: %v", segs)
	}
	if reg.Counter("sigrec_eventlog_rotations_total").Load() == 0 {
		t.Fatal("rotation counter did not move")
	}
	events, _, err := ReadLog(path)
	if err != nil {
		t.Fatal(err)
	}
	// Oldest segments were deleted, so we have a suffix of the stream —
	// but what remains must be in emission order.
	for i := 1; i < len(events); i++ {
		if events[i].Seq != events[i-1].Seq+1 {
			t.Fatalf("replay out of order: seq %d after %d", events[i].Seq, events[i-1].Seq)
		}
	}
	if events[len(events)-1].Seq != n {
		t.Fatalf("last seq = %d, want %d", events[len(events)-1].Seq, n)
	}
}

// TestWriterNeverBlocks fills the queue beyond capacity while the file is
// a slow target and checks Emit returns immediately, counting drops.
func TestWriterNeverBlocks(t *testing.T) {
	path := filepath.Join(t.TempDir(), "events.ndjson")
	reg := telemetry.NewRegistry()
	w, err := New(Config{Path: path, QueueSize: 4, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10_000; i++ {
		w.Emit(&Event{DurUS: 1})
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	emitted := reg.Counter("sigrec_events_emitted_total").Load()
	written := reg.Counter("sigrec_events_written_total").Load()
	dropped := reg.Counter("sigrec_events_dropped_total").Load()
	if emitted != 10_000 {
		t.Fatalf("emitted = %d", emitted)
	}
	if written+dropped != emitted {
		t.Fatalf("written(%d) + dropped(%d) != emitted(%d)", written, dropped, emitted)
	}
}

// TestWriterConcurrentEmit hammers Emit from many goroutines racing Close.
func TestWriterConcurrentEmit(t *testing.T) {
	path := filepath.Join(t.TempDir(), "events.ndjson")
	w, err := New(Config{Path: path})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				w.Emit(&Event{RequestID: fmt.Sprintf("g%d-%d", g, i), DurUS: int64(i)})
			}
		}(g)
	}
	wg.Wait()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// Emit after Close must not panic and must return 0.
	if seq := w.Emit(&Event{DurUS: 1}); seq != 0 {
		t.Fatalf("Emit after Close returned seq %d", seq)
	}
}

// TestWriterSeqAscendingUnderRace checks that concurrent Emit and EmitAux
// calls land in the log in strictly ascending seq order: stamping the
// sequence number and enqueueing must be one step, or a preempted emitter
// writes its lower seq after a racing emitter's higher one.
func TestWriterSeqAscendingUnderRace(t *testing.T) {
	const goroutines, perG = 8, 2000
	path := filepath.Join(t.TempDir(), "events.ndjson")
	w, err := New(Config{Path: path, QueueSize: 2 * goroutines * perG})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				w.Emit(&Event{RequestID: fmt.Sprintf("g%d-%d", g, i), DurUS: int64(i + 1)})
				if i%50 == 0 {
					w.EmitAux("marker", map[string]int{"g": g, "i": i})
				}
			}
		}(g)
	}
	wg.Wait()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var prev uint64
	lines := 0
	for _, line := range bytes.Split(bytes.TrimSuffix(data, []byte("\n")), []byte("\n")) {
		var rec struct{ Seq uint64 }
		if err := json.Unmarshal(line, &rec); err != nil {
			t.Fatalf("line %d: %v", lines+1, err)
		}
		if rec.Seq <= prev {
			t.Fatalf("line %d: seq %d not ascending (prev %d)", lines+1, rec.Seq, prev)
		}
		prev = rec.Seq
		lines++
	}
	if want := goroutines * (perG + perG/50); lines != want {
		t.Fatalf("log holds %d records, want %d", lines, want)
	}
}

// TestSamplerAlwaysKeepsOutcomes checks errors/truncations survive even at
// rate 0, and that the bulk is dropped at rate 0.
func TestSamplerAlwaysKeepsOutcomes(t *testing.T) {
	s := newSampler(0.0, 1)
	s.thresholdUS.Store(1 << 40) // nothing counts as slow
	if ok, class := s.keep(&Event{Error: "boom"}); !ok || class != "outcome" {
		t.Fatalf("error event: keep=%v class=%q", ok, class)
	}
	if ok, class := s.keep(&Event{Truncated: true, TruncCause: "steps"}); !ok || class != "outcome" {
		t.Fatalf("truncated event: keep=%v class=%q", ok, class)
	}
	if ok, _ := s.keep(&Event{DurUS: 5}); ok {
		t.Fatal("bulk event kept at rate 0")
	}
}

// TestSamplerSlowTail checks the decaying threshold admits slow outliers
// and converges: a stream of fast events with occasional 100x spikes keeps
// (roughly) the spikes.
func TestSamplerSlowTail(t *testing.T) {
	s := newSampler(0.0, 1)
	slowKept := 0
	for i := 0; i < 5_000; i++ {
		dur := int64(100)
		if i%100 == 99 {
			dur = 10_000
		}
		ok, class := s.keep(&Event{DurUS: dur})
		if dur == 10_000 && ok && class == "slow" {
			slowKept++
		}
	}
	if slowKept < 40 { // 50 spikes total; the first few train the threshold
		t.Fatalf("slow tail kept only %d of ~50 spikes", slowKept)
	}
	// After training, the threshold must sit between the bulk and spike durations.
	if th := s.thresholdNow(); th <= 100 || th > 10_000 {
		t.Fatalf("trained threshold = %d, want in (100, 10000]", th)
	}
}

// TestSamplerRate checks probabilistic bulk sampling is near the rate.
func TestSamplerRate(t *testing.T) {
	s := newSampler(0.25, 42)
	s.thresholdUS.Store(1 << 40)
	kept := 0
	const n = 20_000
	for i := 0; i < n; i++ {
		if ok, _ := s.keep(&Event{DurUS: 1}); ok {
			kept++
		}
	}
	got := float64(kept) / n
	if got < 0.22 || got > 0.28 {
		t.Fatalf("keep rate = %v, want ~0.25", got)
	}
}

// TestTail checks the in-memory ring serves the most recent lines.
func TestTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "events.ndjson")
	w, err := New(Config{Path: path, TailSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		w.Emit(&Event{RequestID: fmt.Sprintf("req-%d", i)})
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	lines := w.Tail(100)
	if len(lines) != 4 {
		t.Fatalf("Tail returned %d lines, want 4", len(lines))
	}
	if !bytes.Contains(lines[3], []byte("req-9")) {
		t.Fatalf("newest tail line = %s", lines[3])
	}
	if !bytes.Contains(lines[0], []byte("req-6")) {
		t.Fatalf("oldest tail line = %s", lines[0])
	}
	// Nil-safety for the unconfigured path.
	var nilW *Writer
	if got := nilW.Tail(5); got != nil {
		t.Fatalf("nil Tail = %v", got)
	}
	if seq := nilW.Emit(&Event{}); seq != 0 {
		t.Fatalf("nil Emit = %d", seq)
	}
}

// TestEmitAux round-trips an auxiliary record and checks readers skip it.
func TestEmitAux(t *testing.T) {
	path := filepath.Join(t.TempDir(), "events.ndjson")
	w, err := New(Config{Path: path})
	if err != nil {
		t.Fatal(err)
	}
	w.Emit(&Event{RequestID: "real", DurUS: 5})
	if seq := w.EmitAux("flight_recorder", map[string]int{"recoveries": 3}); seq == 0 {
		t.Fatal("EmitAux returned 0")
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	events, skipped, err := ReadLog(path)
	if err != nil {
		t.Fatal(err)
	}
	if skipped != 0 || len(events) != 1 || events[0].RequestID != "real" {
		t.Fatalf("aux record leaked into events: %d events, %d skipped", len(events), skipped)
	}
	raw, _ := os.ReadFile(path)
	if !strings.Contains(string(raw), `"kind":"flight_recorder"`) ||
		!strings.Contains(string(raw), `"recoveries":3`) {
		t.Fatalf("aux record not on disk:\n%s", raw)
	}
}

// TestReaderSkipsTornLine simulates a crash mid-write: the torn final
// line is skipped and counted, the rest decodes.
func TestReaderSkipsTornLine(t *testing.T) {
	path := filepath.Join(t.TempDir(), "events.ndjson")
	data := `{"seq":1,"ts":1,"dur_us":100}` + "\n" +
		`{"seq":2,"ts":2,"dur_us":200}` + "\n" +
		`{"seq":3,"ts":3,"dur` // torn
	if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
	events, skipped, err := ReadLog(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 2 || skipped != 1 {
		t.Fatalf("got %d events, %d skipped; want 2/1", len(events), skipped)
	}
}

// TestWriterResume checks a reopened writer appends to the existing
// segment rather than truncating it.
func TestWriterResume(t *testing.T) {
	path := filepath.Join(t.TempDir(), "events.ndjson")
	w, err := New(Config{Path: path})
	if err != nil {
		t.Fatal(err)
	}
	w.Emit(&Event{RequestID: "first"})
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	w2, err := New(Config{Path: path})
	if err != nil {
		t.Fatal(err)
	}
	w2.Emit(&Event{RequestID: "second"})
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}
	events, _, err := ReadLog(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 2 || events[0].RequestID != "first" || events[1].RequestID != "second" {
		t.Fatalf("resume lost data: %+v", events)
	}
}

// TestAnalyze checks the aggregation over a synthetic stream.
func TestAnalyze(t *testing.T) {
	events := []Event{
		{Seq: 1, RequestID: "a", DurUS: 500, Functions: 2, Selectors: 2, Steps: 100,
			RuleFires: map[string]uint64{"R11": 3, "R1": 1}},
		{Seq: 2, RequestID: "b", DurUS: 5_000, Functions: 1, Selectors: 1, Steps: 400,
			RuleFires: map[string]uint64{"R11": 1}},
		{Seq: 3, RequestID: "c", DurUS: 50_000, Truncated: true, TruncCause: "steps", Steps: 9_000},
		{Seq: 4, RequestID: "d", DurUS: 150_000, Error: "bad code"},
		{Seq: 5, RequestID: "e", DurUS: 800, Cache: "hit", Functions: 2},
	}
	r := Analyze(events, 3)
	if r.Events != 5 || r.Errors != 1 || r.Truncated != 1 || r.CacheHits != 1 {
		t.Fatalf("totals: %+v", r)
	}
	if r.TruncCauses["steps"] != 1 {
		t.Fatalf("trunc causes: %v", r.TruncCauses)
	}
	// The cache-hit event's functions are excluded: totals mirror the
	// /metrics counters, which don't move on hits.
	if r.Functions != 3 || r.Selectors != 3 {
		t.Fatalf("functions=%d selectors=%d", r.Functions, r.Selectors)
	}
	if r.RuleFires["R11"] != 4 || r.RuleFires["R1"] != 1 {
		t.Fatalf("rule fires: %v", r.RuleFires)
	}
	b := r.LatencyBuckets
	if b.Under1ms != 2 || b.To10ms != 1 || b.To100ms != 1 || b.Over100ms != 1 {
		t.Fatalf("buckets: %+v", b)
	}
	if r.Quantiles.Max != 150_000 {
		t.Fatalf("max = %d", r.Quantiles.Max)
	}
	if len(r.Slowest) != 3 || r.Slowest[0].Seq != 4 || r.Slowest[0].RequestID != "d" {
		t.Fatalf("slowest: %+v", r.Slowest)
	}
	if len(r.Rules) == 0 || r.Rules[0].Rule != "R11" || r.Rules[0].Events != 2 {
		t.Fatalf("rules: %+v", r.Rules)
	}
	var buf bytes.Buffer
	r.WriteText(&buf)
	for _, want := range []string{"events analyzed: 5", "R11", "truncation causes", "slowest recoveries", "request_id"} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("text report missing %q:\n%s", want, buf.String())
		}
	}
}

// TestAnalyzePhasesSkipHits checks that phase statistics cover only the
// computed recoveries, as the /metrics phase histograms do: a rescan that
// is nearly all cache hits must not drag the phase p95s to zero.
func TestAnalyzePhasesSkipHits(t *testing.T) {
	var events []Event
	for i := 0; i < 2; i++ {
		events = append(events, Event{DurUS: 1_000, CodeBytes: 500,
			DisasmUS: 100, DispatchUS: 200, ExploreUS: 300, InferUS: 400})
	}
	for i := 0; i < 98; i++ {
		events = append(events, Event{DurUS: 5, CodeBytes: 500, Cache: "hit"})
	}
	// Empty bytecode is rejected before any phase runs.
	events = append(events, Event{DurUS: 1, Error: "core: empty bytecode"})
	r := Analyze(events, 0)
	want := []PhaseStat{
		{Name: "disasm", SumUS: 200, P95US: 100},
		{Name: "dispatch", SumUS: 400, P95US: 200},
		{Name: "explore", SumUS: 600, P95US: 300},
		{Name: "infer", SumUS: 800, P95US: 400},
	}
	if !reflect.DeepEqual(r.Phases, want) {
		t.Fatalf("phases = %+v, want %+v", r.Phases, want)
	}
}

// TestEventFinalize checks the intern hit rate folds in.
func TestEventFinalize(t *testing.T) {
	ev := &Event{}
	ev.AddIntern(900, 100)
	ev.Finalize()
	if ev.InternHitPermille != 900 {
		t.Fatalf("intern hit permille = %d, want 900", ev.InternHitPermille)
	}
}

// TestRuleFiresEncodesLikeAMap: the hand-written encoder of the rule-fire
// vector writes the bytes encoding/json writes for the same
// map[string]uint64, including key order and keys that need escaping, and
// decodes back to the same map.
func TestRuleFiresEncodesLikeAMap(t *testing.T) {
	many := map[string]uint64{}
	for i := 0; i < 40; i++ {
		many[fmt.Sprintf("R%d", i)] = uint64(i * 7)
	}
	for _, m := range []map[string]uint64{
		{},
		{"R4": 1},
		{"R11": 3, "R1": 1, "R4": 18446744073709551615},
		{"R2": 2, "<R&3>": 3, "é": 4, `q"uote`: 5},
		many,
	} {
		want, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		got, err := json.Marshal(RuleFires(m))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("RuleFires encodes %s, map encodes %s", got, want)
		}
		var back RuleFires
		if err := json.Unmarshal(got, &back); err != nil || len(back) != len(m) {
			t.Fatalf("decode %s: %v (%d keys)", got, err, len(back))
		}
		for k, v := range m {
			if back[k] != v {
				t.Errorf("decode %s: %s = %d, want %d", got, k, back[k], v)
			}
		}
	}
}
