package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"sigrec/internal/core"
	"sigrec/internal/corpus"
	"sigrec/internal/keccak"
	"sigrec/internal/obs"
	"sigrec/internal/otlp"
	"sigrec/internal/server"
	"sigrec/internal/telemetry"
)

// traceCollector is a minimal in-process OTLP/HTTP trace collector shared
// by the router and every shard: it retains each exported span tagged with
// the service.name of the payload that carried it, so the test reconciles
// the cross-process trace exactly as a real collector would see it.
type traceCollector struct {
	srv *httptest.Server

	mu    sync.Mutex
	spans []tracedSpan
}

type tracedSpan struct {
	Service      string
	TraceID      string
	SpanID       string
	ParentSpanID string
	Name         string
	Attrs        map[string]string
}

func newTraceCollector(t *testing.T) *traceCollector {
	t.Helper()
	c := &traceCollector{}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/traces", c.handleTraces)
	mux.HandleFunc("POST /v1/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
	})
	c.srv = httptest.NewServer(mux)
	t.Cleanup(c.srv.Close)
	return c
}

type traceAttr struct {
	Key   string `json:"key"`
	Value struct {
		StringValue *string `json:"stringValue"`
		IntValue    *string `json:"intValue"`
		BoolValue   *bool   `json:"boolValue"`
	} `json:"value"`
}

func traceAttrMap(attrs []traceAttr) map[string]string {
	m := make(map[string]string, len(attrs))
	for _, a := range attrs {
		switch {
		case a.Value.StringValue != nil:
			m[a.Key] = *a.Value.StringValue
		case a.Value.IntValue != nil:
			m[a.Key] = *a.Value.IntValue
		case a.Value.BoolValue != nil:
			m[a.Key] = fmt.Sprint(*a.Value.BoolValue)
		}
	}
	return m
}

func (c *traceCollector) handleTraces(w http.ResponseWriter, r *http.Request) {
	var req struct {
		ResourceSpans []struct {
			Resource struct {
				Attributes []traceAttr `json:"attributes"`
			} `json:"resource"`
			ScopeSpans []struct {
				Spans []struct {
					TraceID      string      `json:"traceId"`
					SpanID       string      `json:"spanId"`
					ParentSpanID string      `json:"parentSpanId"`
					Name         string      `json:"name"`
					Attributes   []traceAttr `json:"attributes"`
				} `json:"spans"`
			} `json:"scopeSpans"`
		} `json:"resourceSpans"`
	}
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, rs := range req.ResourceSpans {
		service := traceAttrMap(rs.Resource.Attributes)["service.name"]
		for _, ss := range rs.ScopeSpans {
			for _, s := range ss.Spans {
				c.spans = append(c.spans, tracedSpan{
					Service:      service,
					TraceID:      s.TraceID,
					SpanID:       s.SpanID,
					ParentSpanID: s.ParentSpanID,
					Name:         s.Name,
					Attrs:        traceAttrMap(s.Attributes),
				})
			}
		}
	}
	w.WriteHeader(http.StatusOK)
}

func (c *traceCollector) byTrace(tid string) []tracedSpan {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []tracedSpan
	for _, s := range c.spans {
		if s.TraceID == tid {
			out = append(out, s)
		}
	}
	return out
}

func (c *traceCollector) named(name string) []tracedSpan {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []tracedSpan
	for _, s := range c.spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// tracedShard is one real in-process sigrecd with its own tracer and
// exporter, all draining into the shared collector.
type tracedShard struct {
	id     string
	srv    *server.Server
	ts     *httptest.Server
	tracer *obs.Tracer
	exp    *otlp.Exporter
}

func newTracedShard(t *testing.T, id string, col *traceCollector) *tracedShard {
	t.Helper()
	exp := otlp.New(otlp.Config{
		Endpoint:    col.srv.URL,
		Interval:    time.Hour, // flush on Close only: deterministic delivery
		ServiceName: id,
		Registry:    core.Metrics(),
	})
	tracer := obs.New(obs.Config{Slowest: 1024, Sink: exp.Sink()})
	srv := server.New(server.Config{Workers: 4, QueueDepth: 256, Tracer: tracer, Service: id})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return &tracedShard{id: id, srv: srv, ts: ts, tracer: tracer, exp: exp}
}

// flushExporter ships everything the exporter queued in one deterministic
// drain.
func flushExporter(t *testing.T, exp *otlp.Exporter) {
	t.Helper()
	exp.Start()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := exp.Close(ctx); err != nil {
		t.Fatalf("exporter close: %v", err)
	}
}

// spanTreeSize counts the spans of one flight-recorder record.
func spanTreeSize(rec *obs.Record) int {
	return len(obs.FlattenRecord(rec, ""))
}

// waitUntil polls cond for up to two seconds.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// uniqueCode derives a unique full-recovery input from the corpus base.
func uniqueCode(base []byte, i int) []byte {
	code := make([]byte, len(base), len(base)+4)
	copy(code, base)
	return append(code, 0xfe, 0x77, byte(i>>8), byte(i))
}

// TestClusterTraceE2E is the distributed-tracing acceptance gate: an OTLP
// collector receiving from the router and three real shards must see one
// trace per client request, spanning the router's route/attempt spans and
// the winning shard's recovery tree, with exact span-count and parentage
// reconciliation against the flight recorders — including a hedged request
// whose losing attempt span is present and marked cancelled.
func TestClusterTraceE2E(t *testing.T) {
	col := newTraceCollector(t)
	shards := []*tracedShard{
		newTracedShard(t, "s1", col),
		newTracedShard(t, "s2", col),
		newTracedShard(t, "s3", col),
	}
	regBefore := core.Metrics().Snapshot().LabeledCounters["sigrec_trace_context_total"].Values

	routerReg := telemetry.NewRegistry()
	routerExp := otlp.New(otlp.Config{
		Endpoint:    col.srv.URL,
		Interval:    time.Hour,
		ServiceName: "sigrec-router",
		Registry:    routerReg,
	})
	routerTracer := obs.New(obs.Config{Slowest: 4096, Sink: routerExp.Sink()})
	rt, err := NewRouter(Config{
		Shards: []ShardAddr{
			{ID: "s1", URL: shards[0].ts.URL},
			{ID: "s2", URL: shards[1].ts.URL},
			{ID: "s3", URL: shards[2].ts.URL},
		},
		Registry: routerReg,
		Tracer:   routerTracer,
	})
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(rt.Handler())
	defer front.Close()

	entries, err := corpus.GenerateSynthesized(17)
	if err != nil {
		t.Fatal(err)
	}
	base := entries[0].Code

	// --- three unique single recoveries under explicit request ids ---
	singleIDs := []string{"trace-e2e-0", "trace-e2e-1", "trace-e2e-2"}
	for i, id := range singleIDs {
		code := uniqueCode(base, i)
		req, err := http.NewRequest("POST", front.URL+"/v1/recover", strings.NewReader(fmt.Sprintf("0x%x", code)))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("X-Request-Id", id)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("recover %s status = %d", id, resp.StatusCode)
		}
	}

	// --- one 2-item batch: both items must ride one trace ---
	batchBody := fmt.Sprintf("0x%x\n0x%x\n", uniqueCode(base, 100), uniqueCode(base, 101))
	breq, err := http.NewRequest("POST", front.URL+"/v1/recover/batch", strings.NewReader(batchBody))
	if err != nil {
		t.Fatal(err)
	}
	breq.Header.Set("X-Request-Id", "trace-e2e-batch")
	bresp, err := http.DefaultClient.Do(breq)
	if err != nil {
		t.Fatal(err)
	}
	bresp.Body.Close()
	if bresp.StatusCode != http.StatusOK {
		t.Fatalf("batch status = %d", bresp.StatusCode)
	}

	// --- one hedged request through a second router whose primary is slow ---
	hedgedTrace := driveHedgedRequest(t, col, shards, base)

	// The hedged route's recovery is finished by the loser-drainer
	// goroutine after the response returns; everything else finishes
	// synchronously before its response.
	for _, id := range singleIDs {
		tid := obs.DeriveTraceID(id)
		if len(routerTracer.Recorder().Find(tid)) != 1 {
			t.Fatalf("router recorder has no record for %s", id)
		}
	}

	rt.Close() // stop the health pollers before the deterministic flush
	flushExporter(t, routerExp)
	for _, sh := range shards {
		flushExporter(t, sh.exp)
	}

	// --- reconciliation: one trace per client request, exact counts ---
	for _, id := range singleIDs {
		tid := obs.DeriveTraceID(id)
		spans := col.byTrace(tid)

		var routeRoots, attempts, recoveries []tracedSpan
		byID := map[string]tracedSpan{}
		for _, s := range spans {
			byID[s.SpanID] = s
			switch {
			case s.Name == "route" && s.ParentSpanID == "":
				routeRoots = append(routeRoots, s)
			case s.Name == "attempt":
				attempts = append(attempts, s)
			case s.Name == "recovery":
				recoveries = append(recoveries, s)
			}
		}
		if len(routeRoots) != 1 {
			t.Fatalf("%s: route roots = %d, want 1", id, len(routeRoots))
		}
		if len(attempts) != 1 || attempts[0].Attrs["outcome"] != "winner" {
			t.Fatalf("%s: attempts = %+v, want exactly one winner", id, attempts)
		}
		if attempts[0].ParentSpanID != routeRoots[0].SpanID {
			t.Fatalf("%s: attempt parents under %s, not the route root %s",
				id, attempts[0].ParentSpanID, routeRoots[0].SpanID)
		}
		// The shard's recovery tree parents under the winning attempt span,
		// on the shard whose id the attempt recorded.
		var recoveryRoots []tracedSpan
		for _, r := range recoveries {
			if r.ParentSpanID == attempts[0].SpanID {
				recoveryRoots = append(recoveryRoots, r)
			}
		}
		if len(recoveryRoots) != 1 {
			t.Fatalf("%s: recovery roots under the winner = %d, want 1", id, len(recoveryRoots))
		}
		if recoveryRoots[0].Service != attempts[0].Attrs["shard"] {
			t.Fatalf("%s: recovery exported by %s, attempt says shard %s",
				id, recoveryRoots[0].Service, attempts[0].Attrs["shard"])
		}
		// Every span parents inside the trace (no orphans in a live fleet).
		for _, s := range spans {
			if s.ParentSpanID == "" {
				continue
			}
			if _, ok := byID[s.ParentSpanID]; !ok {
				t.Fatalf("%s: span %s (%s) has unexported parent %s", id, s.SpanID, s.Name, s.ParentSpanID)
			}
		}
		// Exact span count: collector == router tree + winning shard tree.
		want := 0
		for _, rec := range routerTracer.Recorder().Find(tid) {
			want += spanTreeSize(rec)
		}
		for _, sh := range shards {
			for _, rec := range sh.tracer.Recorder().Find(tid) {
				want += spanTreeSize(rec)
			}
		}
		if len(spans) != want {
			t.Fatalf("%s: collector holds %d spans, flight recorders hold %d", id, len(spans), want)
		}
	}

	// --- batch: one trace, two route roots, two recovery trees ---
	btid := obs.DeriveTraceID("trace-e2e-batch")
	bspans := col.byTrace(btid)
	var broots, brecov []tracedSpan
	for _, s := range bspans {
		if s.Name == "route" && s.ParentSpanID == "" {
			broots = append(broots, s)
		}
		if s.Name == "recovery" {
			brecov = append(brecov, s)
		}
	}
	if len(broots) != 2 || len(brecov) != 2 {
		t.Fatalf("batch trace: route roots = %d, recoveries = %d, want 2/2", len(broots), len(brecov))
	}

	// --- hedged request: loser attempt present and marked cancelled ---
	hspans := col.byTrace(hedgedTrace)
	var winner, cancelled []tracedSpan
	for _, s := range hspans {
		if s.Name != "attempt" {
			continue
		}
		switch s.Attrs["outcome"] {
		case "winner":
			winner = append(winner, s)
		case "cancelled":
			cancelled = append(cancelled, s)
		}
	}
	if len(winner) != 1 || winner[0].Attrs["kind"] != "hedge" {
		t.Fatalf("hedged trace winners = %+v, want one hedge winner", winner)
	}
	if len(cancelled) != 1 || cancelled[0].Attrs["kind"] != "primary" {
		t.Fatalf("hedged trace cancelled attempts = %+v, want the primary", cancelled)
	}

	// --- health polls are traced too ---
	if len(col.named("shard.poll")) == 0 {
		t.Error("no shard.poll spans exported")
	}

	// --- counters: the router metered inbound extraction, promlint-clean ---
	snap := routerReg.Snapshot()
	if got := snap.LabeledCounters["sigrec_trace_context_total"].Values["absent"]; got != 4 {
		t.Errorf("router absent trace-context count = %d, want 4 (3 singles + 1 batch)", got)
	}
	regAfter := core.Metrics().Snapshot().LabeledCounters["sigrec_trace_context_total"].Values
	// Shards saw a valid traceparent on every forwarded attempt the
	// middleware let through: 3 singles + 2 batch items + 1 hedge winner.
	if d := regAfter["ok"] - regBefore["ok"]; d != 6 {
		for _, s := range col.named("attempt") {
			t.Logf("attempt: trace=%s shard=%s kind=%s outcome=%s id=%s",
				s.TraceID, s.Attrs["shard"], s.Attrs["kind"], s.Attrs["outcome"], s.Attrs["attempt_id"])
		}
		for _, s := range col.named("recovery") {
			t.Logf("recovery: trace=%s service=%s parent=%s", s.TraceID, s.Service, s.ParentSpanID)
		}
		t.Errorf("shard-side ok trace-context delta = %d, want 6", d)
	}
	var expo strings.Builder
	if _, err := snap.WriteTo(&expo); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(expo.String(), `sigrec_trace_context_total{result="absent"}`) {
		t.Error("router exposition missing the trace-context family")
	}
	if errs := telemetry.Lint(expo.String()); len(errs) != 0 {
		t.Errorf("router exposition fails promlint:\n  %s", strings.Join(errs, "\n  "))
	}

	// --- /debug/trace on the router stitches the cross-process tree ---
	resp, err := http.Get(front.URL + "/debug/trace/trace-e2e-0")
	if err != nil {
		t.Fatal(err)
	}
	var st server.StitchedTrace
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/trace = %d err %v", resp.StatusCode, err)
	}
	if st.Orphans != 0 {
		t.Errorf("stitched trace has %d orphans", st.Orphans)
	}
	if st.Sources["sigrec-router"] == 0 {
		t.Errorf("stitched trace missing router spans: %v", st.Sources)
	}
	shardSpans := 0
	for _, sh := range shards {
		shardSpans += st.Sources[sh.id]
	}
	if shardSpans == 0 {
		t.Errorf("stitched trace missing shard spans: %v", st.Sources)
	}
	if len(st.Spans) != len(col.byTrace(obs.DeriveTraceID("trace-e2e-0"))) {
		t.Errorf("stitched %d spans, collector holds %d",
			len(st.Spans), len(col.byTrace(obs.DeriveTraceID("trace-e2e-0"))))
	}
}

// driveHedgedRequest runs one request through a second, hedge-aggressive
// router whose primary shard path stalls, so the hedge deterministically
// fires and wins. Returns the request's trace id. The stalled path aborts
// without touching the shard once the router cancels it, so the losing
// attempt leaves exactly one span: the router's, marked cancelled.
func driveHedgedRequest(t *testing.T, col *traceCollector, shards []*tracedShard, base []byte) string {
	t.Helper()

	// A stalling front for s1: wait out the router's cancel, then 502 —
	// the underlying shard never sees the request.
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost {
			// Drain the body first: a handler that never reads it leaves
			// the server's background read unarmed, so the router's cancel
			// would not fire r.Context().Done() and the stall would fall
			// through to the shard after all.
			body, _ := io.ReadAll(r.Body)
			select {
			case <-r.Context().Done():
				w.WriteHeader(http.StatusBadGateway)
				return
			case <-time.After(200 * time.Millisecond):
			}
			r.Body = io.NopCloser(bytes.NewReader(body))
		}
		shards[0].ts.Config.Handler.ServeHTTP(w, r)
	}))
	defer slow.Close()

	hedgeReg := telemetry.NewRegistry()
	hedgeExp := otlp.New(otlp.Config{
		Endpoint:    col.srv.URL,
		Interval:    time.Hour,
		ServiceName: "sigrec-router",
		Registry:    hedgeReg,
	})
	hedgeTracer := obs.New(obs.Config{Slowest: 4096, Sink: hedgeExp.Sink()})
	pol := fixedPolicy()
	pol.hedgeMin, pol.hedgeMax = time.Millisecond, 2*time.Millisecond
	rt, err := newRouter(Config{
		Shards: []ShardAddr{
			{ID: "s1", URL: slow.URL},
			{ID: "s2", URL: shards[1].ts.URL},
			{ID: "s3", URL: shards[2].ts.URL},
		},
		Registry: hedgeReg,
		Tracer:   hedgeTracer,
		Hedge:    true,
	}, pol)
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(rt.Handler())
	defer front.Close()

	// Find a code the ring assigns to the stalled s1, using the same ring
	// construction as the router.
	predict := NewRing()
	predict.Add("s1")
	predict.Add("s2")
	predict.Add("s3")
	var code []byte
	for i := 200; i < 1200; i++ {
		c := uniqueCode(base, i)
		if owner, _ := predict.Owner(keccak.Sum256(c)); owner == "s1" {
			code = c
			break
		}
	}
	if code == nil {
		t.Fatal("no code owned by s1 in 1000 tries")
	}

	req, err := http.NewRequest("POST", front.URL+"/v1/recover", strings.NewReader(fmt.Sprintf("0x%x", code)))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Request-Id", "trace-e2e-hedged")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("hedged recover status = %d", resp.StatusCode)
	}

	if got := hedgeReg.Snapshot().Counters["cluster_router_hedges_won_total"]; got != 1 {
		t.Fatalf("hedges won = %d, want 1", got)
	}

	tid := obs.DeriveTraceID("trace-e2e-hedged")
	// The loser-drainer finishes the route recovery asynchronously.
	waitUntil(t, "hedged route recovery", func() bool {
		return len(hedgeTracer.Recorder().Find(tid)) == 1
	})
	rt.Close()
	flushExporter(t, hedgeExp)
	return tid
}
