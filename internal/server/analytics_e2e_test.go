package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"path/filepath"
	"testing"
	"time"

	"sigrec/internal/core"
	"sigrec/internal/corpus"
	"sigrec/internal/eventlog"
	"sigrec/internal/telemetry"
)

// TestAnalyticsE2E is the offline-analytics acceptance gate (`make
// analytics-e2e` runs it under -race): sigrecd's serving path writes wide
// events under real batch load with rotation forced, then the event log is
// replayed the way cmd/sigrec-analyze does — and the replay's recovery,
// error, truncation, function, and per-rule totals must equal the
// /metrics counter deltas exactly, as must every bucket of the recovery
// and phase latency histograms. At sample-rate 1 the durable log is a
// lossless account of the pipeline: anything the counters saw, the log
// can reproduce offline.
func TestAnalyticsE2E(t *testing.T) {
	if testing.Short() {
		t.Skip("analytics e2e skipped in -short mode")
	}
	c, err := corpus.Generate(corpus.Config{Seed: 11, Solidity: 160, Vyper: 40, MaxParams: 4})
	if err != nil {
		t.Fatal(err)
	}

	// Tiny segments force rotation mid-run; MaxSegments is sized so no
	// segment is ever deleted (a deleted segment would break exactness).
	path := filepath.Join(t.TempDir(), "events.ndjson")
	w, err := eventlog.New(eventlog.Config{
		Path:        path,
		MaxBytes:    16 << 10,
		MaxSegments: 64,
		Registry:    telemetry.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}

	before := core.Metrics().Snapshot()

	s, ts := newTestServer(t, Config{QueueDepth: 256, EventLog: w})
	var body bytes.Buffer
	for _, e := range c.Entries {
		fmt.Fprintf(&body, "0x%x\n", e.Code)
	}
	resp, err := http.Post(ts.URL+"/v1/recover/batch", "application/x-ndjson", &body)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	lines := 0
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		var br BatchResult
		if err := json.Unmarshal(sc.Bytes(), &br); err != nil {
			t.Fatalf("bad line %q: %v", sc.Text(), err)
		}
		lines++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if lines != len(c.Entries) {
		t.Fatalf("got %d result lines, want %d", lines, len(c.Entries))
	}

	// Drain the pool (all recoveries finished and emitted), then close the
	// log (queue drained, flushed, fsynced) — the sigrecd SIGTERM ordering.
	dctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Drain(dctx); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	after := core.Metrics().Snapshot()
	segs := eventlog.Segments(path)
	if len(segs) < 3 {
		t.Fatalf("expected rotation under load, got segments %v", segs)
	}
	events, skipped, err := eventlog.ReadLog(path)
	if err != nil {
		t.Fatal(err)
	}
	if skipped != 0 {
		t.Fatalf("%d undecodable lines in the log", skipped)
	}
	rep := eventlog.Analyze(events, 10)

	delta := func(name string) uint64 { return after.Counters[name] - before.Counters[name] }
	if got, want := uint64(rep.Events), delta("sigrec_recoveries_total"); got != want {
		t.Errorf("events = %d, recoveries counter delta = %d", got, want)
	}
	if got, want := uint64(rep.Errors), delta("sigrec_recover_errors_total"); got != want {
		t.Errorf("errors = %d, counter delta = %d", got, want)
	}
	if got, want := uint64(rep.Truncated), delta("sigrec_recoveries_truncated_total"); got != want {
		t.Errorf("truncated = %d, counter delta = %d", got, want)
	}
	if got, want := uint64(rep.Functions), delta("sigrec_functions_recovered_total"); got != want {
		t.Errorf("functions = %d, counter delta = %d", got, want)
	}
	bRules := before.LabeledCounters["sigrec_rule_fired_total"].Values
	aRules := after.LabeledCounters["sigrec_rule_fired_total"].Values
	for rule, n := range aRules {
		if want := n - bRules[rule]; rep.RuleFires[rule] != want {
			t.Errorf("rule %s: log total %d, counter delta %d", rule, rep.RuleFires[rule], want)
		}
	}
	for rule, n := range rep.RuleFires {
		if aRules[rule]-bRules[rule] != n {
			t.Errorf("rule %s fired %d in the log but %d on /metrics", rule, n, aRules[rule]-bRules[rule])
		}
	}
	// Latency reconciles bucket by bucket: every event carries the same
	// integer microseconds RecoverContext observed into the recovery and
	// phase histograms, so replaying the log into fresh histograms of the
	// same layout must reproduce each bucket's /metrics delta exactly.
	replay := telemetry.NewRegistry()
	for _, e := range events {
		replay.Histogram("sigrec_recover_duration_microseconds").Observe(uint64(e.DurUS))
		if e.Cache == "hit" || e.CodeBytes == 0 {
			continue // answered before any phase was clocked
		}
		replay.Histogram("sigrec_phase_disasm_microseconds").Observe(uint64(e.DisasmUS))
		replay.Histogram("sigrec_phase_dispatch_microseconds").Observe(uint64(e.DispatchUS))
		replay.Histogram("sigrec_phase_explore_microseconds").Observe(uint64(e.ExploreUS))
		replay.Histogram("sigrec_phase_infer_microseconds").Observe(uint64(e.InferUS))
	}
	replayed := replay.Snapshot().Histograms
	for name, r := range replayed {
		b, a := before.Histograms[name], after.Histograms[name]
		for i := range r.Cumulative {
			got, want := bucketCount(r, i), bucketCount(a, i)-bucketCount(b, i)
			if got != want {
				t.Errorf("%s bucket %d: log replay %d, /metrics delta %d", name, i, got, want)
			}
		}
	}
	if len(replayed) != 5 {
		t.Errorf("replayed %d latency families, want 5", len(replayed))
	}
	// The log must carry real recoveries, not a vacuous pass.
	if rep.Events < len(c.Entries)/2 || len(rep.RuleFires) == 0 {
		t.Fatalf("log too thin: %d events, %d rules", rep.Events, len(rep.RuleFires))
	}
}

// bucketCount returns bucket i's own (non-cumulative) count.
func bucketCount(h telemetry.HistogramSnapshot, i int) uint64 {
	if i == 0 {
		return h.Cumulative[0]
	}
	return h.Cumulative[i] - h.Cumulative[i-1]
}
