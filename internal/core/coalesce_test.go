package core

import (
	"context"
	"errors"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"sigrec/internal/corpus"
	"sigrec/internal/eventlog"
)

// TestGetOrComputeCoalesces proves the singleflight property: N concurrent
// callers for the same bytecode perform exactly one compute and all share
// its outcome.
func TestGetOrComputeCoalesces(t *testing.T) {
	cache := NewCache(8)
	code := []byte{0x60, 0x80, 0x60, 0x40}
	want := Result{Functions: []RecoveredFunction{{}}}

	var computes atomic.Int32
	release := make(chan struct{})
	start := make(chan struct{})
	const n = 16
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			res, err := cache.GetOrComputeFill(context.Background(), code, nil, func() (Result, error) {
				computes.Add(1)
				<-release
				return want, nil
			})
			if err != nil {
				errs[i] = err
				return
			}
			if len(res.Functions) != len(want.Functions) {
				errs[i] = errors.New("wrong result shared")
			}
		}(i)
	}
	close(start)
	// Wait for the winner to enter compute; everyone else either coalesces
	// onto its flight or, if scheduled after it finishes, hits the cache.
	for computes.Load() == 0 {
		runtime.Gosched()
	}
	close(release)
	wg.Wait()

	if got := computes.Load(); got != 1 {
		t.Fatalf("computes = %d, want exactly 1", got)
	}
	for i, err := range errs {
		if err != nil {
			t.Fatalf("caller %d: %v", i, err)
		}
	}
	if cache.Len() != 1 {
		t.Fatalf("cache holds %d entries, want 1", cache.Len())
	}
}

// TestGetOrComputeTruncatedNotCached: truncated outcomes are returned but
// never stored, so the next caller recomputes (matching RecoverContext's
// store policy).
func TestGetOrComputeTruncatedNotCached(t *testing.T) {
	cache := NewCache(8)
	code := []byte{0x01, 0x02}
	var computes int
	for i := 0; i < 2; i++ {
		res, err := cache.GetOrComputeFill(context.Background(), code, nil, func() (Result, error) {
			computes++
			return Result{Truncated: true}, nil
		})
		if err != nil || !res.Truncated {
			t.Fatalf("call %d: res=%+v err=%v", i, res, err)
		}
	}
	if computes != 2 {
		t.Fatalf("computes = %d, want 2 (truncated results must not be cached)", computes)
	}
	if cache.Len() != 0 {
		t.Fatalf("cache holds %d entries, want 0", cache.Len())
	}
}

// TestGetOrComputeErrNoFunctionsCached: the definitive no-dispatcher error
// is cacheable, like RecoverContext's policy.
func TestGetOrComputeErrNoFunctionsCached(t *testing.T) {
	cache := NewCache(8)
	code := []byte{0xfe}
	var computes int
	for i := 0; i < 2; i++ {
		_, err := cache.GetOrComputeFill(context.Background(), code, nil, func() (Result, error) {
			computes++
			return Result{}, ErrNoFunctions
		})
		if !errors.Is(err, ErrNoFunctions) {
			t.Fatalf("call %d: err=%v", i, err)
		}
	}
	if computes != 1 {
		t.Fatalf("computes = %d, want 1 (ErrNoFunctions is cacheable)", computes)
	}
}

// TestGetOrComputeTransientErrorNotCached: other errors are shared with
// coalesced waiters but never stored.
func TestGetOrComputeTransientErrorNotCached(t *testing.T) {
	cache := NewCache(8)
	code := []byte{0x03, 0x04}
	boom := errors.New("transient")
	var computes int
	for i := 0; i < 2; i++ {
		_, err := cache.GetOrComputeFill(context.Background(), code, nil, func() (Result, error) {
			computes++
			return Result{}, boom
		})
		if !errors.Is(err, boom) {
			t.Fatalf("call %d: err=%v", i, err)
		}
	}
	if computes != 2 {
		t.Fatalf("computes = %d, want 2 (transient errors must not be cached)", computes)
	}
}

// TestRecoverContextCoalesces releases 16 recoveries of one never-seen
// bytecode at once over one shared Cache: exactly one computes (one
// cache miss), the other 15 are hits or coalesced waits, all 16 results
// render alike, and each call emits its own wide event — the 15 that did
// not compute marked as cache hits.
func TestRecoverContextCoalesces(t *testing.T) {
	synth, err := corpus.GenerateSynthesized(1)
	if err != nil {
		t.Fatal(err)
	}
	// A ten-function contract takes milliseconds, long enough that the
	// herd arrives while the winner is still computing.
	code := distinctCodes(synth)[0]
	want := renderResult(RecoverContext(context.Background(), code, Options{}))
	if strings.Contains(want, "truncated=true") {
		t.Fatalf("reference recovery truncated; a truncated outcome is not cached:\n%s", want)
	}

	path := filepath.Join(t.TempDir(), "events.ndjson")
	w, err := eventlog.New(eventlog.Config{Path: path})
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Cache: NewCache(8), EventLog: w}
	const n = 16
	got := make([]string, n)
	start := make(chan struct{})
	var wg sync.WaitGroup
	before := Metrics().Snapshot().Counters
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			got[i] = renderResult(RecoverContext(context.Background(), code, opts))
		}(i)
	}
	close(start)
	wg.Wait()
	after := Metrics().Snapshot().Counters
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	delta := func(name string) uint64 { return after[name] - before[name] }
	if d := delta("sigrec_cache_misses_total"); d != 1 {
		t.Errorf("cache misses rose by %d, want 1: one recovery computes", d)
	}
	if d := delta("sigrec_cache_hits_total") + delta("sigrec_cache_coalesced_total"); d != n-1 {
		t.Errorf("hits plus coalesced rose by %d, want %d", d, n-1)
	}
	for i, g := range got {
		if g != want {
			t.Fatalf("caller %d rendered differently:\n%s\nwant:\n%s", i, g, want)
		}
	}
	events, _, err := eventlog.ReadLog(path)
	if err != nil {
		t.Fatal(err)
	}
	hits := 0
	for _, ev := range events {
		if ev.Cache == "hit" {
			hits++
		}
	}
	if len(events) != n || hits != n-1 {
		t.Errorf("%d events, %d marked hit; want %d and %d", len(events), hits, n, n-1)
	}
}
