// Package e2etest is the cluster kill/restart gate: it builds the real
// sigrecd and sigrec-router binaries, spawns a 3-shard cluster plus
// router as OS processes, drives concurrent recovery load through the
// router while SIGKILLing and restarting a shard mid-load, and then
// reconciles the shards' durable event logs against the client's record
// — zero lost recoveries, zero duplicated attempts, and the cache hit
// rate warm immediately after the restart: each shard runs with a
// persistent result store (-store-dir), so the restarted shard's first
// replay must be served from its own disk (>= 0.9 hit rate, zero
// recomputation, zero peer refill).
//
// Tracing is reconciled the same way: every shard event carries the
// trace id derived from the client's request id, and the live router's
// GET /debug/trace must show — for every one of the load's requests —
// exactly one winning attempt span with the winner's shard-side recovery
// tree nested under it, hedge losers present and marked cancelled, with
// orphaned spans tolerated only across the kill/restart window.
//
// The suite is opt-in (CLUSTER_E2E=1, set by `make cluster-e2e`) because
// it builds race-instrumented binaries and runs for tens of seconds.
// CLUSTER_E2E_ARTIFACTS names a directory that receives every shard and
// router log plus the event-log segments and the stitched traces of the
// router's slowest requests, so a CI failure ships the whole cluster's
// state as artifacts.
package e2etest

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"sigrec/internal/cluster"
	"sigrec/internal/corpus"
	"sigrec/internal/eventlog"
	"sigrec/internal/keccak"
	"sigrec/internal/obs"
	"sigrec/internal/server"
)

// proc is one spawned cluster process with its captured stderr log.
type proc struct {
	name string
	cmd  *exec.Cmd
	log  *os.File
}

func startProc(t *testing.T, name, bin string, logPath string, args ...string) *proc {
	t.Helper()
	f, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatalf("open %s: %v", logPath, err)
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout = f
	cmd.Stderr = f
	if err := cmd.Start(); err != nil {
		f.Close()
		t.Fatalf("start %s: %v", name, err)
	}
	return &proc{name: name, cmd: cmd, log: f}
}

// stop terminates the process gracefully (SIGTERM, bounded wait).
func (p *proc) stop(t *testing.T) {
	t.Helper()
	if p == nil || p.cmd.Process == nil {
		return
	}
	_ = p.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan error, 1)
	go func() { done <- p.cmd.Wait() }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		_ = p.cmd.Process.Kill()
		<-done
		t.Errorf("%s did not drain within 30s; killed", p.name)
	}
	p.log.Close()
}

// kill SIGKILLs the process — the crash under test, nothing graceful.
func (p *proc) kill(t *testing.T) {
	t.Helper()
	if err := p.cmd.Process.Kill(); err != nil {
		t.Fatalf("kill %s: %v", p.name, err)
	}
	_, _ = p.cmd.Process.Wait()
	p.log.Close()
}

// pickAddr reserves a free loopback port and releases it for the child
// process to claim.
func pickAddr(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	return addr
}

// buildBinaries compiles sigrecd and sigrec-router (race-instrumented,
// like the test itself) into dir.
func buildBinaries(t *testing.T, dir string) (sigrecd, router string) {
	t.Helper()
	root, err := filepath.Abs(filepath.Join("..", "..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	sigrecd = filepath.Join(dir, "sigrecd")
	router = filepath.Join(dir, "sigrec-router")
	for bin, pkg := range map[string]string{sigrecd: "./cmd/sigrecd", router: "./cmd/sigrec-router"} {
		cmd := exec.Command("go", "build", "-race", "-o", bin, pkg)
		cmd.Dir = root
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("go build %s: %v\n%s", pkg, err, out)
		}
	}
	return sigrecd, router
}

// recoverResult is the client-side record of one routed recovery.
type recoverResult struct {
	status    int
	winID     string // upstream attempt id echoed by the router
	shard     string // X-Sigrec-Shard of the winner
	functions int
	// stamp is the global completion order (1-based); joined against the
	// kill stamp during reconciliation.
	stamp int64
}

// postRecover sends one bytecode through a router/shard base URL,
// retrying transient failures (transport errors, 429/502/503/504) a few
// times — exactly what a well-behaved client does while a shard is being
// killed under it.
func postRecover(client *http.Client, baseURL, hexBody, id string) (recoverResult, error) {
	var last error
	for attempt := 0; attempt < 4; attempt++ {
		if attempt > 0 {
			time.Sleep(time.Duration(attempt) * 300 * time.Millisecond)
		}
		req, err := http.NewRequest(http.MethodPost, baseURL+"/v1/recover", strings.NewReader(hexBody))
		if err != nil {
			return recoverResult{}, err
		}
		req.Header.Set("X-Request-Id", id)
		resp, err := client.Do(req)
		if err != nil {
			last = err
			continue
		}
		body, rerr := io.ReadAll(resp.Body)
		resp.Body.Close()
		if rerr != nil {
			last = rerr
			continue
		}
		switch resp.StatusCode {
		case http.StatusOK:
			var rr server.RecoverResponse
			if err := json.Unmarshal(body, &rr); err != nil {
				return recoverResult{}, fmt.Errorf("%s: bad response body: %w", id, err)
			}
			return recoverResult{
				status:    resp.StatusCode,
				winID:     resp.Header.Get("X-Request-Id"),
				shard:     resp.Header.Get("X-Sigrec-Shard"),
				functions: len(rr.Functions),
			}, nil
		case http.StatusTooManyRequests, http.StatusBadGateway,
			http.StatusServiceUnavailable, http.StatusGatewayTimeout:
			last = fmt.Errorf("%s: shard answered %d: %s", id, resp.StatusCode, body)
			continue
		default:
			return recoverResult{}, fmt.Errorf("%s: status %d: %s", id, resp.StatusCode, body)
		}
	}
	return recoverResult{}, fmt.Errorf("%s: retries exhausted: %w", id, last)
}

// scrapeSum sums one metric series over several /metrics endpoints.
func scrapeSum(t *testing.T, client *http.Client, series string, urls ...string) float64 {
	t.Helper()
	var sum float64
	for _, u := range urls {
		resp, err := client.Get(u + "/metrics")
		if err != nil {
			t.Fatalf("scrape %s: %v", u, err)
		}
		m, err := cluster.ParseExposition(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("parse %s metrics: %v", u, err)
		}
		sum += m[series]
	}
	return sum
}

// uniqueCode derives a fresh bytecode from a corpus contract by appending
// a tag after the runtime code. The suffix is unreachable, so recovery
// cost and output are unchanged while the keccak cache/ring key is unique.
func uniqueCode(base []byte, tag int) string {
	code := make([]byte, len(base), len(base)+4)
	copy(code, base)
	code = append(code, 0xfe, byte(tag>>16), byte(tag>>8), byte(tag))
	return fmt.Sprintf("0x%x", code)
}

func TestClusterE2E(t *testing.T) {
	if os.Getenv("CLUSTER_E2E") == "" {
		t.Skip("cluster e2e is opt-in: run via `make cluster-e2e` (CLUSTER_E2E=1)")
	}
	artifacts := os.Getenv("CLUSTER_E2E_ARTIFACTS")
	if artifacts == "" {
		artifacts = t.TempDir()
	} else if err := os.MkdirAll(artifacts, 0o755); err != nil {
		t.Fatal(err)
	}
	t.Logf("artifacts: %s", artifacts)

	sigrecdBin, routerBin := buildBinaries(t, t.TempDir())
	client := &http.Client{Timeout: 60 * time.Second}

	// --- topology: 3 shards + 1 router ---

	shardIDs := []string{"s1", "s2", "s3"}
	addrs := map[string]string{}
	urls := map[string]string{}
	for _, id := range shardIDs {
		addrs[id] = pickAddr(t)
		urls[id] = "http://" + addrs[id]
	}
	eventLog := func(name string) string { return filepath.Join(artifacts, name+".events.ndjson") }
	peersOf := func(self string) string {
		var parts []string
		for _, id := range shardIDs {
			if id != self {
				parts = append(parts, id+"="+urls[id])
			}
		}
		return strings.Join(parts, ",")
	}
	startShard := func(id, logName string) *proc {
		return startProc(t, id, sigrecdBin, filepath.Join(artifacts, logName+".log"),
			"-addr", addrs[id],
			"-shard-id", id,
			"-peers", peersOf(id),
			"-event-log", eventLog(logName),
			// The persistent result store is keyed by shard id, not by
			// incarnation: a restarted shard reopens its predecessor's
			// segments and must serve its working set warm from disk.
			"-store-dir", filepath.Join(artifacts, id+".store"),
			// Trace reconciliation reads every request's recovery tree back
			// out of the flight recorder, so it must retain the whole load.
			"-trace-slowest", "4096",
			"-log-format", "json",
			"-drain", "10s",
		)
	}

	shards := map[string]*proc{}
	for _, id := range shardIDs {
		shards[id] = startShard(id, id)
	}
	stopped := map[string]bool{}
	defer func() {
		for id, p := range shards {
			if !stopped[id] {
				p.stop(t)
			}
		}
	}()

	shardSpec := strings.Join([]string{
		"s1=" + urls["s1"], "s2=" + urls["s2"], "s3=" + urls["s3"],
	}, ",")
	routerAddr := pickAddr(t)
	routerURL := "http://" + routerAddr
	// The primary router hedges nothing: reconciliation phase A must map
	// every computed recovery to exactly one client attempt.
	router := startProc(t, "router", routerBin, filepath.Join(artifacts, "router.log"),
		"-addr", routerAddr,
		"-shards", shardSpec,
		"-hedge=false",
		// Big enough that the health-poll records cannot evict the load's
		// route records over the suite's whole runtime.
		"-trace-slowest", "16384",
		"-log-format", "json",
	)
	routerStopped := false
	defer func() {
		if !routerStopped {
			router.stop(t)
		}
	}()

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	for _, id := range shardIDs {
		if err := cluster.WaitReady(ctx, client, urls[id]+"/healthz"); err != nil {
			t.Fatal(err)
		}
	}
	if err := cluster.WaitReady(ctx, client, routerURL+"/healthz"); err != nil {
		t.Fatal(err)
	}
	// Load must not start until the router's health poller has discovered
	// the whole pool — otherwise early requests divert around a shard the
	// first poll round raced, and the warm set lands on the wrong owners.
	if err := cluster.WaitPoolHealthy(ctx, client, routerURL+"/healthz", len(shardIDs)); err != nil {
		t.Fatal(err)
	}

	// --- corpus ---

	c, err := corpus.Generate(corpus.Config{Seed: 29, Solidity: 10, Vyper: 2, MaxParams: 3})
	if err != nil {
		t.Fatal(err)
	}
	entries := c.Entries
	codeFor := func(tag int) string { return uniqueCode(entries[tag%len(entries)].Code, tag) }

	shardMetricURLs := []string{urls["s1"], urls["s2"], urls["s3"]}
	replayWarm := func(prefix string) {
		for i := 0; i < 60; i++ {
			res, err := postRecover(client, routerURL, codeFor(100000+i), fmt.Sprintf("%s-%03d", prefix, i))
			if err != nil {
				t.Fatalf("warm replay %s-%03d: %v", prefix, i, err)
			}
			if res.functions == 0 {
				t.Fatalf("warm replay %s-%03d: no functions recovered", prefix, i)
			}
		}
	}

	// --- phase B: warm the cluster, measure the steady-state hit rate ---

	replayWarm("phb1") // populate
	h0 := scrapeSum(t, client, "sigrec_cache_hits_total", shardMetricURLs...)
	replayWarm("phb2") // should be served from shard caches
	h1 := scrapeSum(t, client, "sigrec_cache_hits_total", shardMetricURLs...)
	preKillHitRate := (h1 - h0) / 60
	if preKillHitRate < 0.9 {
		t.Fatalf("pre-kill warm hit rate = %.2f, want >= 0.9", preKillHitRate)
	}
	t.Logf("pre-kill warm hit rate: %.2f", preKillHitRate)

	// Routed batch smoke: the same warm set through the router's NDJSON
	// endpoint must come back complete and error-free.
	var batchIn bytes.Buffer
	for i := 0; i < 60; i++ {
		batchIn.WriteString(codeFor(100000+i) + "\n")
	}
	req, _ := http.NewRequest(http.MethodPost, routerURL+"/v1/recover/batch", &batchIn)
	req.Header.Set("X-Request-Id", "phb-batch")
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	lines := 0
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var br server.BatchResult
		if err := json.Unmarshal(sc.Bytes(), &br); err != nil {
			t.Fatalf("batch line %q: %v", sc.Text(), err)
		}
		if br.Error != "" {
			t.Fatalf("batch item %d failed: %s", br.Index, br.Error)
		}
		lines++
	}
	resp.Body.Close()
	if lines != 60 {
		t.Fatalf("batch returned %d lines, want 60", lines)
	}

	// --- phase A: concurrent unique load with a SIGKILL mid-flight ---

	const (
		phaseATotal = 240
		batchSize   = 80
		workers     = 16
	)
	var (
		mu        sync.Mutex
		results   = map[string]recoverResult{} // base id -> outcome
		completed atomic.Int64
		killStamp atomic.Int64
	)
	runBatch := func(start, end int, onComplete func(done int64)) {
		work := make(chan int)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range work {
					base := fmt.Sprintf("pha-%03d", i)
					res, err := postRecover(client, routerURL, codeFor(i), base)
					if err != nil {
						t.Errorf("%s: %v", base, err)
						continue
					}
					res.stamp = completed.Add(1)
					mu.Lock()
					results[base] = res
					mu.Unlock()
					if onComplete != nil {
						onComplete(res.stamp)
					}
				}
			}()
		}
		for i := start; i < end; i++ {
			work <- i
		}
		close(work)
		wg.Wait()
	}

	runBatch(0, batchSize, nil)

	// Batch 2 runs while s2 is SIGKILLed under it: once a sliver of the
	// batch has completed, the shard dies with requests in flight.
	var killOnce sync.Once
	killAfter := completed.Load() + 20
	runBatch(batchSize, 2*batchSize, func(done int64) {
		if done >= killAfter {
			killOnce.Do(func() {
				killStamp.Store(done)
				t.Logf("SIGKILL s2 after %d completions", done)
				shards["s2"].kill(t)
			})
		}
	})
	if killStamp.Load() == 0 {
		t.Fatal("kill never fired")
	}

	// Let the router's health poll see s2 down before it comes back: the
	// rising edge on its return is what closes the breaker the kill
	// opened. A restart inside one poll interval shows no edge, and the
	// breaker would bench s2 for its whole cooldown.
	if err := cluster.Retry(ctx, 100, 50*time.Millisecond, func() error {
		if scrapeSum(t, client, `cluster_shard_healthy{shard="s2"}`, routerURL) != 0 {
			return fmt.Errorf("router still reports s2 healthy")
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	// Restart s2 on the same address with a fresh event log, wait until
	// it serves, then finish the load with the full pool back.
	shards["s2"] = startShard("s2", "s2-restarted")
	if err := cluster.WaitReady(ctx, client, urls["s2"]+"/healthz"); err != nil {
		t.Fatalf("restarted s2 never became ready: %v", err)
	}
	// Wait until the router has re-admitted the restarted shard, so the
	// final batch exercises the full pool again.
	if err := cluster.WaitPoolHealthy(ctx, client, routerURL+"/healthz", len(shardIDs)); err != nil {
		t.Fatalf("restarted s2 never rejoined the router pool: %v", err)
	}
	runBatch(2*batchSize, phaseATotal, nil)

	if t.Failed() {
		t.Fatal("phase A had failed recoveries; skipping reconciliation")
	}
	if len(results) != phaseATotal {
		t.Fatalf("phase A completed %d/%d recoveries", len(results), phaseATotal)
	}

	// --- phase B': warm start straight from the disk store ---

	// The restarted s2 reopened its predecessor's -store-dir, so the VERY
	// FIRST replay of the warm set after the restart must already be served
	// warm: hit rate >= 0.9 with zero recomputation (no TASE paths
	// explored) and zero peer refill — s2's own disk answers before the
	// fill hook is ever consulted.
	fills0w := scrapeSum(t, client, "sigrec_cache_fill_hits_total", shardMetricURLs...)
	fillMiss0w := scrapeSum(t, client, "sigrec_cache_fill_misses_total", shardMetricURLs...)
	paths0w := scrapeSum(t, client, "sigrec_tase_paths_explored_total", shardMetricURLs...)
	store0w := scrapeSum(t, client, "sigrec_store_hits_total", urls["s2"])
	h2 := scrapeSum(t, client, "sigrec_cache_hits_total", shardMetricURLs...)
	replayWarm("phb3")
	h3 := scrapeSum(t, client, "sigrec_cache_hits_total", shardMetricURLs...)
	postHitRate := (h3 - h2) / 60
	if postHitRate < 0.9 {
		t.Fatalf("first-replay warm hit rate after restart = %.2f, want >= 0.9 (pre-kill %.2f)", postHitRate, preKillHitRate)
	}
	t.Logf("first-replay warm hit rate after restart: %.2f", postHitRate)
	if d := scrapeSum(t, client, "sigrec_tase_paths_explored_total", shardMetricURLs...) - paths0w; d != 0 {
		t.Errorf("warm replay after restart recomputed (%.0f TASE paths explored)", d)
	}
	if d := scrapeSum(t, client, "sigrec_cache_fill_hits_total", shardMetricURLs...) - fills0w; d != 0 {
		t.Errorf("warm replay after restart refilled from peers (%.0f fill hits); the disk store must answer first", d)
	}
	if d := scrapeSum(t, client, "sigrec_cache_fill_misses_total", shardMetricURLs...) - fillMiss0w; d != 0 {
		t.Errorf("warm replay after restart consulted the peer-fill hook %.0f times; the disk store must answer first", d)
	}
	if d := scrapeSum(t, client, "sigrec_store_hits_total", urls["s2"]) - store0w; d < 1 {
		t.Errorf("restarted s2 served %.0f results from its disk store, want >= 1", d)
	}
	// Second replay: the disk hits were promoted, so the set stays warm
	// from memory.
	replayWarm("phb4")
	h4 := scrapeSum(t, client, "sigrec_cache_hits_total", shardMetricURLs...)
	if rate := (h4 - h3) / 60; rate < 0.9 {
		t.Fatalf("promoted warm hit rate = %.2f, want >= 0.9", rate)
	}
	if got := scrapeSum(t, client, "sigrec_recoveries_total", urls["s2"]); got == 0 {
		t.Error("restarted s2 never ran a recovery — not rejoined the pool")
	}

	// --- peer cache fill, across real processes ---

	ring := cluster.NewRing()
	for _, id := range shardIDs {
		ring.Add(id)
	}
	fillTag := 0
	for tag := 200000; ; tag++ {
		code, err := server.ParseBytecode([]byte(codeFor(tag)))
		if err != nil {
			t.Fatal(err)
		}
		if owner, _ := ring.Owner(keccak.Sum256(code)); owner == "s1" {
			fillTag = tag
			break
		}
	}
	// Warm the owner directly, then hit a non-owner directly: it must
	// adopt the owner's cached result instead of recomputing.
	if _, err := postRecover(client, urls["s1"], codeFor(fillTag), "phd-owner"); err != nil {
		t.Fatal(err)
	}
	fills0 := scrapeSum(t, client, "sigrec_cache_fill_hits_total", urls["s3"])
	recov0 := scrapeSum(t, client, "sigrec_recoveries_total", urls["s3"])
	if _, err := postRecover(client, urls["s3"], codeFor(fillTag), "phd-peer"); err != nil {
		t.Fatal(err)
	}
	if got := scrapeSum(t, client, "sigrec_cache_fill_hits_total", urls["s3"]) - fills0; got != 1 {
		t.Errorf("peer fill hits delta = %.0f, want 1", got)
	}
	if got := scrapeSum(t, client, "sigrec_recoveries_total", urls["s3"]) - recov0; got != 0 {
		t.Errorf("non-owner recomputed (%.0f recoveries) despite peer fill", got)
	}

	// --- phase C: hedging, on a second router ---

	hedgeAddr := pickAddr(t)
	hedgeURL := "http://" + hedgeAddr
	hedgeRouter := startProc(t, "router-hedge", routerBin, filepath.Join(artifacts, "router-hedge.log"),
		"-addr", hedgeAddr,
		"-shards", shardSpec,
		"-hedge=true",
		"-trace-slowest", "4096",
		"-log-format", "json",
	)
	if err := cluster.WaitReady(ctx, client, hedgeURL+"/healthz"); err != nil {
		hedgeRouter.stop(t)
		t.Fatal(err)
	}
	// Until its first scrape of a shard's p95 the router hedges only after
	// 500ms; the load starts once every shard's p95 is known, so the hedge
	// delay is the p95 clamped to [2ms, 500ms].
	for _, id := range shardIDs {
		series := `cluster_shard_p95_microseconds{shard="` + id + `"}`
		if err := cluster.Retry(ctx, 100, 50*time.Millisecond, func() error {
			if scrapeSum(t, client, series, hedgeURL) <= 0 {
				return fmt.Errorf("hedge router has no p95 for %s yet", id)
			}
			return nil
		}); err != nil {
			hedgeRouter.stop(t)
			t.Fatal(err)
		}
	}
	var hwg sync.WaitGroup
	for i := 0; i < 60; i++ {
		hwg.Add(1)
		go func(i int) {
			defer hwg.Done()
			if _, err := postRecover(client, hedgeURL, codeFor(300000+i), fmt.Sprintf("phc-%03d", i)); err != nil {
				t.Errorf("hedged request %d: %v", i, err)
			}
		}(i)
	}
	hwg.Wait()
	hedgesFired := scrapeSum(t, client, "cluster_router_hedges_fired_total", hedgeURL)
	if hedgesFired == 0 {
		t.Error("no hedges fired under concurrent load although queueing outlasts every shard's p95")
	}
	hedgesWon := scrapeSum(t, client, "cluster_router_hedges_won_total", hedgeURL)
	t.Logf("hedges fired: %.0f, won: %.0f", hedgesFired, hedgesWon)
	if hedgesWon > 0 {
		checkHedgeTraces(t, client, hedgeURL)
	}
	hedgeRouter.stop(t)

	// --- trace reconciliation, against the still-live fleet ---

	reconcileTraces(t, client, routerURL, results, killStamp.Load()+int64(workers))
	dumpSlowestTraces(t, client, routerURL, artifacts, 5)

	// --- drain everything, then reconcile the event logs ---

	router.stop(t)
	routerStopped = true
	for _, id := range shardIDs {
		shards[id].stop(t)
		stopped[id] = true
	}

	// Requests already in flight on s2 when the SIGKILL landed may have
	// completed client-side just after the kill stamp was taken; widen the
	// exemption window by the worker count to cover them.
	reconcile(t, results, killStamp.Load()+int64(workers), map[string]string{
		"s1":      eventLog("s1"),
		"s2-pre":  eventLog("s2"),
		"s2-post": eventLog("s2-restarted"),
		"s3":      eventLog("s3"),
	})
}

// reconcile joins the shards' durable event logs against the client-side
// record of phase A: every recovery the client saw succeed was computed
// somewhere (zero lost), no forwarded attempt was processed twice (zero
// duplicated), and any double-computed contract is explained by the
// killed shard.
func reconcile(t *testing.T, results map[string]recoverResult, killStamp int64, logs map[string]string) {
	t.Helper()
	type srcEvent struct {
		src string
		ev  eventlog.Event
	}
	var all []srcEvent
	for src, path := range logs {
		events, skipped, err := eventlog.ReadLog(path)
		if err != nil {
			t.Fatalf("read %s (%s): %v", src, path, err)
		}
		// Only the SIGKILLed segment may carry a torn final line.
		if skipped > 0 && src != "s2-pre" {
			t.Errorf("%s: %d undecodable lines in a cleanly closed log", src, skipped)
		}
		var lastSeq uint64
		for _, ev := range events {
			if ev.Seq <= lastSeq {
				t.Errorf("%s: event seq %d not ascending (prev %d)", src, ev.Seq, lastSeq)
			}
			lastSeq = ev.Seq
			if strings.HasPrefix(ev.RequestID, "pha-") {
				all = append(all, srcEvent{src: src, ev: ev})
			}
		}
	}

	// Zero duplicated: a forwarded attempt id must never be processed by
	// two shards (or twice by one).
	attempts := map[string][]string{}
	eventsByBase := map[string][]srcEvent{}
	for _, se := range all {
		id := se.ev.RequestID
		attempts[id] = append(attempts[id], se.src)
		base, _, ok := strings.Cut(id, ".")
		if !ok {
			t.Errorf("%s: event request id %q has no attempt suffix", se.src, id)
			continue
		}
		if _, known := results[base]; !known {
			t.Errorf("%s: event for unknown base %q", se.src, base)
			continue
		}
		// Cross-process join key: the router derives every forwarded
		// attempt's trace id from the client's request id, so the shard's
		// durable event must carry exactly that derivation.
		if want := obs.DeriveTraceID(base); se.ev.TraceID != want {
			t.Errorf("%s: event %s trace id = %q, want %q", se.src, id, se.ev.TraceID, want)
		}
		eventsByBase[base] = append(eventsByBase[base], se)
	}
	for id, srcs := range attempts {
		if len(srcs) > 1 {
			t.Errorf("attempt %s processed %d times (%v)", id, len(srcs), srcs)
		}
	}

	// Zero lost: every client-confirmed recovery has at least one durable
	// event. The only exemption is a recovery served by s2 before the
	// SIGKILL — its event may sit in the dead process's last buffered
	// block, which is exactly what the crash is allowed to cost.
	lost, exempt, dups := 0, 0, 0
	for base, res := range results {
		evs := eventsByBase[base]
		if len(evs) == 0 {
			if res.shard == "s2" && res.stamp <= killStamp {
				exempt++
				continue
			}
			lost++
			t.Errorf("base %s (shard %s, stamp %d): no event in any log", base, res.shard, res.stamp)
			continue
		}
		if len(evs) > 1 {
			// A contract computed twice must be explained by the kill: one
			// of the computations has to be the one the crash orphaned.
			dups++
			inKilled := false
			for _, se := range evs {
				if se.src == "s2-pre" {
					inKilled = true
				}
			}
			if !inKilled {
				srcs := make([]string, len(evs))
				for i, se := range evs {
					srcs[i] = se.src + ":" + se.ev.RequestID
				}
				t.Errorf("base %s computed %d times with no copy on the killed shard: %v", base, len(evs), srcs)
			}
		}
	}
	t.Logf("reconciled %d recoveries: %d events, %d double-computed (kill-explained), %d kill-exempt, %d lost",
		len(results), len(all), dups, exempt, lost)
}

// fetchTrace pulls the stitched cross-process trace for a request or
// trace id from a live router or shard.
func fetchTrace(t *testing.T, client *http.Client, baseURL, id string) server.StitchedTrace {
	t.Helper()
	resp, err := client.Get(baseURL + "/debug/trace/" + id)
	if err != nil {
		t.Fatalf("fetch trace %s: %v", id, err)
	}
	defer resp.Body.Close()
	var st server.StitchedTrace
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("fetch trace %s: status=%d err=%v", id, resp.StatusCode, err)
	}
	return st
}

// attrOf returns a span's string attribute (numeric attrs answer "").
func attrOf(sp obs.FlatSpan, key string) string {
	for _, a := range sp.Attrs {
		if a.Key == key {
			return a.Str
		}
	}
	return ""
}

// reconcileTraces joins the router's stitched traces against the
// client-side record of phase A: every confirmed recovery's trace holds
// exactly one winning attempt span, on the shard that answered the
// client, with that shard's recovery tree nested under the attempt span
// id. The only tolerated gaps are requests served by s2 around the
// SIGKILL — the dead incarnation's flight recorder (unlike its event
// log) does not survive the crash, which is precisely what the stitched
// view's orphan counter exists to report.
func reconcileTraces(t *testing.T, client *http.Client, routerURL string, results map[string]recoverResult, killStamp int64) {
	t.Helper()
	checked, killExempt := 0, 0
	for base, res := range results {
		inKillWindow := res.shard == "s2" && res.stamp <= killStamp
		st := fetchTrace(t, client, routerURL, base)
		if want := obs.DeriveTraceID(base); st.TraceID != want {
			t.Fatalf("trace %s: stitched id %q, want %q", base, st.TraceID, want)
		}
		var winners []obs.FlatSpan
		for _, sp := range st.Spans {
			if sp.Name == "attempt" && attrOf(sp, "outcome") == "winner" {
				winners = append(winners, sp)
			}
		}
		if len(winners) != 1 {
			t.Errorf("trace %s: %d winning attempt spans, want exactly 1", base, len(winners))
			continue
		}
		win := winners[0]
		if got := attrOf(win, "shard"); got != res.shard {
			t.Errorf("trace %s: winning attempt on shard %q, client saw %q", base, got, res.shard)
		}
		recovered := false
		for _, sp := range st.Spans {
			if sp.Name != "recovery" || sp.ParentSpanID != win.SpanID {
				continue
			}
			recovered = true
			if sp.Service != res.shard {
				t.Errorf("trace %s: winner's recovery recorded by %q, want %q", base, sp.Service, res.shard)
			}
		}
		if !recovered {
			if inKillWindow {
				killExempt++
			} else {
				t.Errorf("trace %s: no recovery tree under the winning attempt (shard %s, stamp %d)", base, res.shard, res.stamp)
			}
		}
		if st.Orphans > 0 && !inKillWindow {
			t.Errorf("trace %s: %d orphaned spans outside the kill window", base, st.Orphans)
		}
		checked++
	}
	t.Logf("trace reconciliation: %d traces checked, %d kill-exempt gaps", checked, killExempt)
}

// checkHedgeTraces scans the hedge router's traces for the race the
// counters say happened: at least one request won by the hedge attempt,
// with the losing primary attempt present in the same trace and marked
// cancelled. The route record lands via a drainer goroutine after the
// client response, so the scan retries briefly.
func checkHedgeTraces(t *testing.T, client *http.Client, hedgeURL string) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for {
		foundWin, foundCancelled := false, false
		for i := 0; i < 60; i++ {
			st := fetchTrace(t, client, hedgeURL, fmt.Sprintf("phc-%03d", i))
			winKind, cancelled := "", false
			for _, sp := range st.Spans {
				if sp.Name != "attempt" {
					continue
				}
				switch attrOf(sp, "outcome") {
				case "winner":
					winKind = attrOf(sp, "kind")
				case "cancelled":
					cancelled = true
				}
			}
			if winKind == "hedge" {
				foundWin = true
				if cancelled {
					foundCancelled = true
				}
			}
		}
		if foundWin && foundCancelled {
			return
		}
		if time.Now().After(deadline) {
			if !foundWin {
				t.Error("hedges won per the counters, but no trace shows a hedge attempt winning")
			}
			if !foundCancelled {
				t.Error("no hedge-won trace carries its cancelled primary attempt")
			}
			return
		}
		time.Sleep(100 * time.Millisecond)
	}
}

// dumpSlowestTraces writes the stitched cross-process traces of the
// router's slowest client requests into the artifacts directory — the
// files CI ships when the gate fails, so a slow or broken run can be
// read span by span without re-running anything.
func dumpSlowestTraces(t *testing.T, client *http.Client, routerURL, dir string, n int) {
	t.Helper()
	resp, err := client.Get(routerURL + "/debug/slowest")
	if err != nil {
		t.Errorf("fetch router flight recorder: %v", err)
		return
	}
	var snap obs.Snapshot
	derr := json.NewDecoder(resp.Body).Decode(&snap)
	resp.Body.Close()
	if derr != nil {
		t.Errorf("decode router flight recorder: %v", derr)
		return
	}
	wrote := 0
	for _, rec := range snap.Slowest {
		if wrote >= n {
			break
		}
		// Health polls are retained too; the artifact wants client traffic.
		if rec.TraceID == "" || strings.HasPrefix(rec.RequestID, "poll-") {
			continue
		}
		st := fetchTrace(t, client, routerURL, rec.TraceID)
		data, err := json.MarshalIndent(st, "", "  ")
		if err != nil {
			t.Errorf("marshal trace %s: %v", rec.TraceID, err)
			continue
		}
		wrote++
		path := filepath.Join(dir, fmt.Sprintf("slowest-%d-%s.trace.json", wrote, rec.RequestID))
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Errorf("write %s: %v", path, err)
		}
	}
	t.Logf("wrote %d slowest stitched traces to %s", wrote, dir)
}
