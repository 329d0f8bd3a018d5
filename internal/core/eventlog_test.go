package core

import (
	"context"
	"path/filepath"
	"testing"

	"sigrec/internal/corpus"
	"sigrec/internal/eventlog"
)

// TestRecoverEmitsWideEvents checks the 1:1 contract between recoveries
// and wide events: every RecoverContext call — including the cache-hit
// path — emits exactly one event, and the event's fields agree with the
// recovery result (functions, rules, request id, phase timing).
func TestRecoverEmitsWideEvents(t *testing.T) {
	c, err := corpus.Generate(corpus.Config{Seed: 99, Solidity: 8, MaxParams: 3})
	if err != nil {
		t.Fatalf("corpus: %v", err)
	}
	path := filepath.Join(t.TempDir(), "events.ndjson")
	w, err := eventlog.New(eventlog.Config{Path: path})
	if err != nil {
		t.Fatal(err)
	}
	cache := NewCache(64)
	opts := Options{Cache: cache, EventLog: w}
	wantFns := 0
	for i, e := range c.Entries {
		ctx, sc := eventlog.NewContext(context.Background(), "req-"+string(rune('a'+i%26)))
		sc.QueueUS = 42
		res, err := RecoverContext(ctx, e.Code, opts)
		if err != nil {
			t.Fatalf("entry %d: %v", i, err)
		}
		wantFns += len(res.Functions)
	}
	// Replay the first entry: served by the cache, still one event.
	ctx, _ := eventlog.NewContext(context.Background(), "req-replay")
	if _, err := RecoverContext(ctx, c.Entries[0].Code, opts); err != nil {
		t.Fatalf("replay: %v", err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	events, skipped, err := eventlog.ReadLog(path)
	if err != nil {
		t.Fatal(err)
	}
	if skipped != 0 {
		t.Fatalf("%d undecodable lines", skipped)
	}
	if len(events) != len(c.Entries)+1 {
		t.Fatalf("got %d events for %d recoveries", len(events), len(c.Entries)+1)
	}
	rep := eventlog.Analyze(events, 5)
	if rep.CacheHits != 1 {
		t.Fatalf("cache hits = %d, want 1", rep.CacheHits)
	}
	if rep.Functions != int64(wantFns) {
		t.Fatalf("functions = %d, want %d", rep.Functions, wantFns)
	}
	for i, ev := range events {
		if ev.Cache == "hit" {
			if ev.RequestID != "req-replay" {
				t.Fatalf("cache-hit event request id = %q", ev.RequestID)
			}
			continue
		}
		if ev.RequestID == "" || ev.QueueUS != 42 {
			t.Fatalf("event %d missing scope: %+v", i, ev)
		}
		if ev.Selectors == 0 || ev.Functions == 0 {
			t.Fatalf("event %d missing recovery shape: %+v", i, ev)
		}
		if ev.Steps == 0 || ev.Paths == 0 {
			t.Fatalf("event %d missing TASE counters: %+v", i, ev)
		}
	}
	// Zero-parameter functions fire no rules, so require fires only in
	// aggregate across the corpus.
	if len(rep.RuleFires) == 0 {
		t.Fatal("no rule fires across the whole corpus")
	}
	// Phase histograms observed once per uncached recovery.
	snap := Metrics().Snapshot()
	if got := snap.Histograms["sigrec_phase_disasm_microseconds"].Count; got < uint64(len(c.Entries)) {
		t.Fatalf("disasm histogram count = %d, want >= %d", got, len(c.Entries))
	}
	if got := snap.Histograms["sigrec_recover_duration_microseconds"].Count; got < uint64(len(c.Entries))+1 {
		t.Fatalf("recovery histogram count = %d, want >= %d", got, len(c.Entries)+1)
	}
}
