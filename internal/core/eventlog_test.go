package core

import (
	"context"
	"errors"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
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

	// The events-off path meters exactly like the events-on path: one
	// sequence — computed, a cache hit, ErrNoFunctions and a recovery
	// truncated by StepBudget — moves identical counter and histogram
	// deltas with and without a log, and those deltas are the logged
	// run's Analyze totals.
	code := c.Entries[0].Code
	mixed := func(log *eventlog.Writer) {
		opts := Options{Cache: NewCache(8), EventLog: log}
		for i, in := range [][]byte{code, code, {0x00}} {
			res, err := RecoverContext(context.Background(), in, opts)
			if (i < 2) != (err == nil) || (i == 2) != errors.Is(err, ErrNoFunctions) {
				t.Fatalf("input %d: res %+v, err %v", i, res, err)
			}
		}
		res, err := RecoverContext(context.Background(), code, Options{StepBudget: 60, EventLog: log})
		if err != nil || !res.Truncated || len(res.Functions) == 0 {
			t.Fatalf("budgeted recovery: truncated=%v functions=%d err=%v", res.Truncated, len(res.Functions), err)
		}
	}
	off := meterDeltas(func() { mixed(nil) })
	path = filepath.Join(t.TempDir(), "mixed.ndjson")
	if w, err = eventlog.New(eventlog.Config{Path: path}); err != nil {
		t.Fatal(err)
	}
	on := meterDeltas(func() { mixed(w) })
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(off, on) {
		t.Fatalf("events off and on meter differently:\noff %v\non  %v", off, on)
	}
	if events, _, err = eventlog.ReadLog(path); err != nil {
		t.Fatal(err)
	}
	rep = eventlog.Analyze(events, 0)
	if rep.CacheHits != 1 || rep.Errors != 1 || rep.Truncated != 1 {
		t.Fatalf("mixed log: hits=%d errors=%d truncated=%d, want 1 each", rep.CacheHits, rep.Errors, rep.Truncated)
	}
	computed := uint64(rep.Events - rep.CacheHits)
	want := map[string]uint64{
		"sigrec_recoveries_total":              uint64(rep.Events),
		"sigrec_recover_errors_total":          uint64(rep.Errors),
		"sigrec_recoveries_truncated_total":    uint64(rep.Truncated),
		"sigrec_functions_recovered_total":     uint64(rep.Functions),
		"sigrec_tase_paths_explored_total":     uint64(rep.Paths),
		"sigrec_tase_steps_total":              uint64(rep.Steps),
		"sigrec_recover_duration_microseconds": uint64(rep.Events),
		"sigrec_phase_disasm_microseconds":     computed,
		"sigrec_phase_dispatch_microseconds":   computed,
		"sigrec_phase_explore_microseconds":    computed,
		"sigrec_phase_infer_microseconds":      computed,
		"sigrec_cache_hits_total":              uint64(rep.CacheHits),
	}
	for rule, n := range rep.RuleFires {
		want["sigrec_rule_fired_total{rule="+rule+"}"] = n
	}
	for name, n := range want {
		if on[name] != n {
			t.Errorf("%s moved %d, log says %d", name, on[name], n)
		}
	}
	for name, n := range on {
		if strings.HasPrefix(name, "sigrec_rule_fired_total") && n != want[name] {
			t.Errorf("%s moved %d, log says %d", name, n, want[name])
		}
	}
	// The cause counter counts recoveries, as the log does, not
	// explorations: its causes sum to the truncated recoveries.
	causes, sum := map[string]int{}, uint64(0)
	for name, n := range on {
		if cause, ok := strings.CutPrefix(name, "sigrec_truncations_total{cause="); ok {
			causes[strings.TrimSuffix(cause, "}")] = int(n)
			sum += n
		}
	}
	if !reflect.DeepEqual(causes, rep.TruncCauses) || sum != on["sigrec_recoveries_truncated_total"] {
		t.Errorf("truncation causes moved %v (sum %d) over %d truncated recoveries, log says %v",
			causes, sum, on["sigrec_recoveries_truncated_total"], rep.TruncCauses)
	}
}

// TestHerdEventsReconcile runs concurrent herds over a shared cache —
// four E1 contracts, the first warmed beforehand, eight callers each, all
// released together — and reconciles the event log with the counters: one event
// per call, the events marked hit are exactly the cache hits plus the
// coalesced waits, and the rest are exactly the misses.
func TestHerdEventsReconcile(t *testing.T) {
	c, err := corpus.Generate(corpus.Config{Seed: 7, Solidity: 4, MaxParams: 3})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "herd.ndjson")
	w, err := eventlog.New(eventlog.Config{Path: path})
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Cache: NewCache(8), EventLog: w}
	if _, err := RecoverContext(context.Background(), c.Entries[0].Code, opts); err != nil {
		t.Fatal(err)
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	const perCode = 8
	calls := perCode * len(c.Entries)
	start := make(chan struct{})
	var wg sync.WaitGroup
	on := meterDeltas(func() {
		for i := 0; i < calls; i++ {
			wg.Add(1)
			go func(code []byte) {
				defer wg.Done()
				<-start
				if _, err := RecoverContext(context.Background(), code, opts); err != nil {
					t.Error(err)
				}
			}(c.Entries[i%len(c.Entries)].Code)
		}
		close(start)
		wg.Wait()
	})
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	events, _, err := eventlog.ReadLog(path)
	if err != nil {
		t.Fatal(err)
	}
	events = events[1:] // the warming recovery
	rep := eventlog.Analyze(events, 0)
	if rep.Events != calls || on["sigrec_recoveries_total"] != uint64(calls) {
		t.Fatalf("%d events and %d recoveries counted for %d calls", rep.Events, on["sigrec_recoveries_total"], calls)
	}
	if got, want := uint64(rep.CacheHits), on["sigrec_cache_hits_total"]+on["sigrec_cache_coalesced_total"]; got != want {
		t.Errorf("%d events marked hit, counters say %d hits plus coalesced", got, want)
	}
	if got, want := uint64(rep.Events-rep.CacheHits), on["sigrec_cache_misses_total"]; got != want {
		t.Errorf("%d computed events, counters say %d misses", got, want)
	}
}

// meterDeltas runs fn and returns what it moved in the pipeline
// telemetry: every non-zero counter and labeled-counter delta
// (name{label=value}) and every histogram's count delta.
// sigrec_state_pool_allocs_total is left out: it counts sync.Pool misses,
// which depend on the garbage collector.
func meterDeltas(fn func()) map[string]uint64 {
	before := Metrics().Snapshot()
	fn()
	after := Metrics().Snapshot()
	out := map[string]uint64{}
	put := func(name string, d uint64) {
		if d != 0 {
			out[name] = d
		}
	}
	for name, v := range after.Counters {
		if name != "sigrec_state_pool_allocs_total" {
			put(name, v-before.Counters[name])
		}
	}
	for name, lc := range after.LabeledCounters {
		for val, v := range lc.Values {
			put(name+"{"+lc.Label+"="+val+"}", v-before.LabeledCounters[name].Values[val])
		}
	}
	for name, h := range after.Histograms {
		put(name, h.Count-before.Histograms[name].Count)
	}
	return out
}
