package cluster

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"sigrec/internal/abi"
	"sigrec/internal/core"
	"sigrec/internal/keccak"
	"sigrec/internal/server"
	"sigrec/internal/store"
	"sigrec/internal/telemetry"
)

// stubShard is a fake sigrecd: /healthz, /metrics, and a pluggable
// /v1/recover. hits counts recover calls.
type stubShard struct {
	srv  *httptest.Server
	hits atomic.Int64
}

func newStubShard(t *testing.T, recover http.HandlerFunc) *stubShard {
	t.Helper()
	s := &stubShard{}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
	})
	exposition := stubLatencyExposition()
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, exposition)
	})
	mux.HandleFunc("POST /v1/recover", func(w http.ResponseWriter, r *http.Request) {
		s.hits.Add(1)
		recover(w, r)
	})
	s.srv = httptest.NewServer(mux)
	t.Cleanup(s.srv.Close)
	return s
}

// stubLatencies are the recovery latencies a stub shard reports: 10us to
// 10ms in 10us steps, so the true p95 is the 950th value, 9500us, which
// lies in the (5000, 10000] bucket.
func stubLatencies() []uint64 {
	vals := make([]uint64, 1000)
	for i := range vals {
		vals[i] = uint64(i+1) * 10
	}
	return vals
}

// stubLatencyExposition renders stubLatencies as a shard's /metrics
// would: the sigrec_recover_duration_microseconds histogram family, its
// bucket lines carrying request-id exemplars.
func stubLatencyExposition() string {
	reg := telemetry.NewRegistry()
	h := reg.Histogram("sigrec_recover_duration_microseconds")
	for i, us := range stubLatencies() {
		h.ObserveExemplar(us, fmt.Sprintf("stub-%d", i))
	}
	return reg.Snapshot().String()
}

// The router's hedge input is the p95 read off the shard's recovery
// histogram buckets: it must land inside the bucket that holds the true
// p95 of what the shard observed.
func TestShardP95FromHistogram(t *testing.T) {
	stub := newStubShard(t, okRecover)
	pol := fixedPolicy()
	pol.healthInterval = time.Hour // poll driven by hand below
	rt := newTunedRouter(t, Config{Shards: []ShardAddr{{ID: "s1", URL: stub.srv.URL}}}, pol)
	rt.shards["s1"].poll(t.Context(), rt.client, rt.m)

	vals := stubLatencies()
	truth := vals[int(math.Ceil(0.95*float64(len(vals))))-1]
	var lo, hi uint64
	for _, b := range telemetry.LatencyBuckets() {
		if truth <= b {
			hi = b
			break
		}
		lo = b
	}
	got := rt.Registry().Snapshot().LabeledGauges["cluster_shard_p95_microseconds"].Values["s1"]
	if got <= int64(lo) || got > int64(hi) {
		t.Fatalf("cluster_shard_p95_microseconds = %d, want inside the true p95's bucket (%d, %d] (true p95 %d)",
			got, lo, hi, truth)
	}
	if p95 := rt.shards["s1"].p95us.Load(); p95 != got {
		t.Fatalf("hedge input p95us = %d, gauge = %d", p95, got)
	}
}

// okRecover answers like a healthy shard: echoes the attempt id and
// returns an empty recovery.
func okRecover(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("X-Request-Id", r.Header.Get("X-Request-Id"))
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprint(w, `{"functions":[]}`)
}

func newTestRouter(t *testing.T, cfg Config) *Router {
	t.Helper()
	rt, err := NewRouter(cfg)
	if err != nil {
		t.Fatalf("NewRouter: %v", err)
	}
	t.Cleanup(rt.Close)
	return rt
}

// newTunedRouter builds a router whose policy a test has shortened.
func newTunedRouter(t *testing.T, cfg Config, pol policy) *Router {
	t.Helper()
	rt, err := newRouter(cfg, pol)
	if err != nil {
		t.Fatalf("newRouter: %v", err)
	}
	t.Cleanup(rt.Close)
	return rt
}

func counterValue(rt *Router, name string) uint64 {
	return rt.Registry().Snapshot().Counters[name]
}

// A health-poll rising edge (shard back up after being down) must close
// an open breaker immediately: a restarted shard rejoins within one poll
// interval instead of sitting out the rest of its breaker cooldown.
func TestHealthRecoveryClosesBreaker(t *testing.T) {
	stub := newStubShard(t, okRecover)
	pol := fixedPolicy()
	pol.breakerFailures, pol.breakerCooldown = 1, time.Hour
	pol.healthInterval = time.Hour // poll driven by hand below
	rt := newTunedRouter(t, Config{Shards: []ShardAddr{{ID: "s1", URL: stub.srv.URL}}}, pol)
	sh := rt.shards["s1"]
	sh.healthy.Store(false)
	sh.breaker.Failure() // threshold 1: open, with an hour of cooldown left
	if sh.breaker.State() != BreakerOpen {
		t.Fatalf("breaker state = %d, want open", sh.breaker.State())
	}

	sh.poll(t.Context(), rt.client, rt.m)
	if !sh.healthy.Load() {
		t.Fatal("shard not healthy after successful poll")
	}
	if got := sh.breaker.State(); got != BreakerClosed {
		t.Fatalf("breaker state after health recovery = %d, want closed", got)
	}

	// A healthy poll with no edge must not touch the breaker.
	sh.breaker.Failure()
	sh.poll(t.Context(), rt.client, rt.m)
	if got := sh.breaker.State(); got != BreakerOpen {
		t.Fatalf("steady healthy poll changed breaker state to %d", got)
	}
}

// testCode is valid runtime bytecode input for the routing layer (the
// stubs never actually recover it).
const testCode = "0x60806040"

func postRecover(t *testing.T, h http.Handler, body, requestID string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, "/v1/recover", strings.NewReader(body))
	if requestID != "" {
		req.Header.Set("X-Request-Id", requestID)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

func TestRouterRoutesToOwner(t *testing.T) {
	a := newStubShard(t, okRecover)
	b := newStubShard(t, okRecover)
	rt := newTestRouter(t, Config{Shards: []ShardAddr{
		{ID: "s1", URL: a.srv.URL}, {ID: "s2", URL: b.srv.URL},
	}})

	code, err := server.ParseBytecode([]byte(testCode))
	if err != nil {
		t.Fatal(err)
	}
	ring := NewRing()
	ring.Add("s1")
	ring.Add("s2")
	owner, _ := ring.Owner(keccak.Sum256(code))

	rec := postRecover(t, rt.Handler(), testCode, "client-1")
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d, body %s", rec.Code, rec.Body)
	}
	if got := rec.Header().Get("X-Sigrec-Shard"); got != owner {
		t.Fatalf("served by %q, ring owner is %q", got, owner)
	}
	// The echoed id is the forwarded attempt id: base plus a unique
	// attempt counter, joinable against the shard's event log.
	if id := rec.Header().Get("X-Request-Id"); !strings.HasPrefix(id, "client-1.") {
		t.Fatalf("X-Request-Id = %q, want client-1.<attempt>", id)
	}
	ownerStub, otherStub := a, b
	if owner == "s2" {
		ownerStub, otherStub = b, a
	}
	if ownerStub.hits.Load() != 1 || otherStub.hits.Load() != 0 {
		t.Fatalf("hits owner=%d other=%d, want 1/0", ownerStub.hits.Load(), otherStub.hits.Load())
	}
}

func TestRouterRejectsBadInput(t *testing.T) {
	a := newStubShard(t, okRecover)
	rt := newTestRouter(t, Config{Shards: []ShardAddr{{ID: "s1", URL: a.srv.URL}}})

	for _, body := range []string{"", "zzzz", `{"bytecode":""}`} {
		rec := postRecover(t, rt.Handler(), body, "")
		if rec.Code != http.StatusBadRequest {
			t.Errorf("body %q: status = %d, want 400", body, rec.Code)
		}
	}
	if a.hits.Load() != 0 {
		t.Fatalf("bad input reached a shard (%d hits)", a.hits.Load())
	}
	if got := counterValue(rt, "cluster_router_bad_input_total"); got != 3 {
		t.Fatalf("bad_input_total = %d, want 3", got)
	}
}

func TestRouterRetriesOnRingSuccessor(t *testing.T) {
	// Every shard 503s except one; the router must walk the ring sequence
	// to the healthy successor and still answer 200.
	down := newStubShard(t, func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprint(w, `{"error":"draining"}`)
	})
	up := newStubShard(t, okRecover)
	rt := newTestRouter(t, Config{
		Shards: []ShardAddr{{ID: "s1", URL: down.srv.URL}, {ID: "s2", URL: up.srv.URL}},
	})

	rec := postRecover(t, rt.Handler(), testCode, "r-1")
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d, body %s", rec.Code, rec.Body)
	}
	if up.hits.Load() != 1 {
		t.Fatalf("healthy shard hits = %d, want 1", up.hits.Load())
	}
	// Whichever shard owns the key, the down shard is either the first
	// attempt (then a retry happened) or never needed.
	if down.hits.Load() > 0 && counterValue(rt, "cluster_router_retries_total") == 0 {
		t.Fatal("failed primary attempt not counted as a retry")
	}
}

func TestRouterAllShardsDown(t *testing.T) {
	down := newStubShard(t, func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprint(w, `{"error":"no"}`)
	})
	rt := newTestRouter(t, Config{Shards: []ShardAddr{{ID: "s1", URL: down.srv.URL}}})

	rec := postRecover(t, rt.Handler(), testCode, "")
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want upstream 503 relayed", rec.Code)
	}
	if got := counterValue(rt, "cluster_router_errors_total"); got != 1 {
		t.Fatalf("errors_total = %d, want 1", got)
	}
}

func TestRouterBreakerSkipsOpenShard(t *testing.T) {
	down := newStubShard(t, func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusBadGateway)
		fmt.Fprint(w, `{"error":"boom"}`)
	})
	up := newStubShard(t, okRecover)
	// One failure opens the breaker; a long cooldown keeps it open for the
	// rest of the test.
	pol := fixedPolicy()
	pol.breakerFailures, pol.breakerCooldown = 1, time.Minute
	rt := newTunedRouter(t, Config{
		Shards: []ShardAddr{{ID: "s1", URL: down.srv.URL}, {ID: "s2", URL: up.srv.URL}},
	}, pol)

	for i := 0; i < 5; i++ {
		rec := postRecover(t, rt.Handler(), testCode, "")
		if rec.Code != http.StatusOK {
			t.Fatalf("request %d: status = %d", i, rec.Code)
		}
	}
	// The failing shard is tried at most once before its breaker opens;
	// every later request goes straight to the healthy shard.
	if down.hits.Load() > 1 {
		t.Fatalf("open-breaker shard was tried %d times, want <= 1", down.hits.Load())
	}
	if up.hits.Load() != 5 {
		t.Fatalf("healthy shard hits = %d, want 5", up.hits.Load())
	}
}

func TestRouterHedging(t *testing.T) {
	release := make(chan struct{})
	slow := newStubShard(t, func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-release:
		case <-r.Context().Done():
			return
		}
		okRecover(w, r)
	})
	defer close(release)
	fast := newStubShard(t, okRecover)
	// Force an immediate hedge regardless of scraped p95.
	pol := fixedPolicy()
	pol.hedgeMin, pol.hedgeMax = time.Millisecond, time.Millisecond
	rt := newTunedRouter(t, Config{
		Shards: []ShardAddr{{ID: "s1", URL: slow.srv.URL}, {ID: "s2", URL: fast.srv.URL}},
		Hedge:  true,
	}, pol)

	// Find a bytecode owned by the slow shard so the hedge targets the
	// fast successor. Vary the appended suffix until the ring cooperates.
	ring := NewRing()
	ring.Add("s1")
	ring.Add("s2")
	body := ""
	for i := 0; i < 64; i++ {
		cand := fmt.Sprintf("%s%02x", testCode, i)
		code, err := server.ParseBytecode([]byte(cand))
		if err != nil {
			t.Fatal(err)
		}
		if owner, _ := ring.Owner(keccak.Sum256(code)); owner == "s1" {
			body = cand
			break
		}
	}
	if body == "" {
		t.Fatal("no candidate bytecode owned by s1")
	}

	rec := postRecover(t, rt.Handler(), body, "h-1")
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d, body %s", rec.Code, rec.Body)
	}
	if got := rec.Header().Get("X-Sigrec-Shard"); got != "s2" {
		t.Fatalf("winner = %q, want the hedged shard s2", got)
	}
	if got := counterValue(rt, "cluster_router_hedges_fired_total"); got != 1 {
		t.Fatalf("hedges_fired_total = %d, want 1", got)
	}
	if got := counterValue(rt, "cluster_router_hedges_won_total"); got != 1 {
		t.Fatalf("hedges_won_total = %d, want 1", got)
	}
}

func TestRouterBatch(t *testing.T) {
	a := newStubShard(t, okRecover)
	b := newStubShard(t, okRecover)
	rt := newTestRouter(t, Config{Shards: []ShardAddr{
		{ID: "s1", URL: a.srv.URL}, {ID: "s2", URL: b.srv.URL},
	}})

	var in bytes.Buffer
	for i := 0; i < 8; i++ {
		fmt.Fprintf(&in, "%s%02x\n", testCode, i)
	}
	in.WriteString("not-hex\n")

	req := httptest.NewRequest(http.MethodPost, "/v1/recover/batch", &in)
	rec := httptest.NewRecorder()
	rt.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}

	got := map[int]server.BatchResult{}
	sc := bufio.NewScanner(rec.Body)
	for sc.Scan() {
		var br server.BatchResult
		if err := json.Unmarshal(sc.Bytes(), &br); err != nil {
			t.Fatalf("bad batch line %q: %v", sc.Text(), err)
		}
		got[br.Index] = br
	}
	if len(got) != 9 {
		t.Fatalf("got %d lines, want 9", len(got))
	}
	for i := 0; i < 8; i++ {
		if got[i].Error != "" {
			t.Errorf("line %d: unexpected error %q", i, got[i].Error)
		}
	}
	if got[8].Error == "" {
		t.Error("malformed line 8 did not produce an error result")
	}
	if a.hits.Load()+b.hits.Load() != 8 {
		t.Fatalf("shard hits = %d, want 8", a.hits.Load()+b.hits.Load())
	}
}

func TestRouterHealthz(t *testing.T) {
	a := newStubShard(t, okRecover)
	rt := newTestRouter(t, Config{Shards: []ShardAddr{{ID: "s1", URL: a.srv.URL}}})

	req := httptest.NewRequest(http.MethodGet, "/healthz", nil)
	rec := httptest.NewRecorder()
	rt.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	var h struct {
		Status string `json:"status"`
		Shards []struct {
			ID      string `json:"id"`
			Healthy bool   `json:"healthy"`
		} `json:"shards"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || len(h.Shards) != 1 || !h.Shards[0].Healthy {
		t.Fatalf("healthz = %+v", h)
	}
}

// TestRouterFixedPolicy pins the routing policy of a router built from
// Config{Shards} alone: hedge at the p95 clamped to [2ms, 500ms] (500ms
// before the first scrape), open a breaker after 3 consecutive failures
// and probe after 1s, divert past 1.25x the mean inflight, cap a batch at
// 4 in-flight calls per shard, and place keys exactly where NewRing does.
func TestRouterFixedPolicy(t *testing.T) {
	// A dead shard fails every health poll, so the poller never scrapes a
	// p95 and never touches the breaker: both stay under test control.
	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close()

	t.Run("hedge", func(t *testing.T) {
		rt := newTestRouter(t, Config{Shards: []ShardAddr{{ID: "s1", URL: dead.URL}}})
		sh := rt.shards["s1"]
		for _, c := range []struct {
			p95us int64
			want  time.Duration
		}{
			{0, 500 * time.Millisecond}, // before the first scrape
			{1, 2 * time.Millisecond},
			{1999, 2 * time.Millisecond},
			{2000, 2 * time.Millisecond},
			{9500, 9500 * time.Microsecond},
			{499999, 499999 * time.Microsecond},
			{500000, 500 * time.Millisecond},
			{7000000, 500 * time.Millisecond},
		} {
			sh.p95us.Store(c.p95us)
			if got := sh.hedgeDelay(rt.pol.hedgeMin, rt.pol.hedgeMax); got != c.want {
				t.Errorf("p95 %dus: hedge delay %v, want %v", c.p95us, got, c.want)
			}
		}
	})

	t.Run("breaker", func(t *testing.T) {
		rt := newTestRouter(t, Config{Shards: []ShardAddr{{ID: "s1", URL: dead.URL}}})
		b := rt.shards["s1"].breaker
		clock := time.Unix(1000, 0)
		b.mu.Lock()
		b.now = func() time.Time { return clock }
		b.mu.Unlock()
		for i := 1; i <= 3; i++ {
			if got := b.State(); got != BreakerClosed {
				t.Fatalf("after %d failures: state %d, want closed", i-1, got)
			}
			b.Failure()
		}
		if got := b.State(); got != BreakerOpen {
			t.Fatalf("after 3 failures: state %d, want open", got)
		}
		clock = clock.Add(time.Second - time.Nanosecond)
		if b.Allow() {
			t.Fatal("breaker admitted a request before its 1s cooldown")
		}
		clock = clock.Add(time.Nanosecond)
		if !b.Allow() || b.State() != BreakerHalfOpen {
			t.Fatalf("breaker did not probe after 1s (state %d)", b.State())
		}
	})

	t.Run("divert", func(t *testing.T) {
		a, b := newStubShard(t, okRecover), newStubShard(t, okRecover)
		rt := newTestRouter(t, Config{Shards: []ShardAddr{{ID: "s1", URL: a.srv.URL}, {ID: "s2", URL: b.srv.URL}}})
		key := keccak.Sum256([]byte("hot contract"))
		seq := rt.ring.Sequence(key)
		owner, succ := rt.shards[seq[0]], rt.shards[seq[1]]
		// The owner is skipped once its load reaches
		// int(1.25 * (total+1) / 2); the rows straddle that limit, and
		// {4,3} and {5,3} would flip under factors 1.1 and 1.5.
		for _, c := range []struct {
			owner, succ int64
			divert      bool
		}{
			{0, 0, false},
			{1, 0, true},
			{4, 3, false},
			{5, 3, true},
			{4, 4, false},
			{6, 2, true},
			{9, 9, false},
		} {
			owner.inflight.Store(c.owner)
			succ.inflight.Store(c.succ)
			cands, _ := rt.candidates(key)
			if got := cands[0] != owner; got != c.divert {
				t.Errorf("inflight owner=%d successor=%d: diverted=%v, want %v", c.owner, c.succ, got, c.divert)
			}
		}
		owner.inflight.Store(0)
		succ.inflight.Store(0)
	})

	t.Run("batch", func(t *testing.T) {
		const shards, perShard = 2, 4
		var cur, peak atomic.Int64
		hold := func(w http.ResponseWriter, r *http.Request) {
			n := cur.Add(1)
			for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
			}
			// Wait for the cap to fill, then hold long enough that a
			// looser cap would admit more calls meanwhile.
			for deadline := time.Now().Add(2 * time.Second); cur.Load() < shards*perShard && time.Now().Before(deadline); {
				time.Sleep(time.Millisecond)
			}
			time.Sleep(50 * time.Millisecond)
			cur.Add(-1)
			okRecover(w, r)
		}
		a, b := newStubShard(t, hold), newStubShard(t, hold)
		rt := newTestRouter(t, Config{Shards: []ShardAddr{{ID: "s1", URL: a.srv.URL}, {ID: "s2", URL: b.srv.URL}}})
		var in bytes.Buffer
		for i := 0; i < 24; i++ {
			fmt.Fprintf(&in, "%s%02x\n", testCode, i)
		}
		rec := httptest.NewRecorder()
		rt.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/recover/batch", &in))
		if n := strings.Count(rec.Body.String(), "\n"); rec.Code != http.StatusOK || n != 24 {
			t.Fatalf("status %d, %d lines", rec.Code, n)
		}
		if got := peak.Load(); got != shards*perShard {
			t.Fatalf("peak in-flight upstream calls = %d, want %d", got, shards*perShard)
		}
	})

	t.Run("ring", func(t *testing.T) {
		rt := newTestRouter(t, Config{Shards: []ShardAddr{
			{ID: "s1", URL: dead.URL}, {ID: "s2", URL: dead.URL}, {ID: "s3", URL: dead.URL},
		}})
		ref := NewRing()
		for _, id := range []string{"s1", "s2", "s3"} {
			ref.Add(id)
		}
		keys := randomKeys(4, 5000)
		got, want := owners(t, rt.ring, keys), owners(t, ref, keys)
		for i := range keys {
			if got[i] != want[i] {
				t.Fatalf("key %d: router ring owner %s, NewRing owner %s", i, got[i], want[i])
			}
		}
	})
}

// --- peer cache fill ---

// mustResult builds a small but fully featured recovery result: typed
// inputs, per-parameter rule trails, language, rule stats.
func mustResult(t *testing.T) core.Result {
	t.Helper()
	sig, err := abi.ParseSignature("f(uint256,bytes[])")
	if err != nil {
		t.Fatal(err)
	}
	var sel abi.Selector
	copy(sel[:], []byte{0xde, 0xad, 0xbe, 0xef})
	res := core.Result{Functions: []core.RecoveredFunction{{
		Selector:   sel,
		Inputs:     sig.Inputs,
		ParamRules: [][]core.RuleID{{core.RuleID(4)}, {core.RuleID(1), core.RuleID(2)}},
		Language:   core.LangVyper,
	}}}
	res.Rules[4] = 1
	res.Rules[1] = 1
	res.Rules[2] = 1
	return res
}

// TestFillPayloadRoundTrip sends a result and the no-functions outcome
// over the fill wire — FillHandler's store payload and outcome header,
// PeerFill's decode — and gets both back unchanged.
func TestFillPayloadRoundTrip(t *testing.T) {
	want := mustResult(t)
	code := []byte{0x60, 0x80, 0x60, 0x40}
	empty := []byte{0x00}
	ownerCache := core.NewCache(8)
	for _, seed := range []struct {
		code []byte
		res  core.Result
		err  error
	}{{code, want, nil}, {empty, core.Result{}, core.ErrNoFunctions}} {
		if _, err := ownerCache.GetOrComputeFill(context.Background(), seed.code, nil, func() (core.Result, error) {
			return seed.res, seed.err
		}); err != seed.err {
			t.Fatalf("seeding owner: %v", err)
		}
	}
	owner := httptest.NewServer(FillHandler(ownerCache, 0))
	defer owner.Close()
	fill := PeerFill(soleOwnerRing(), "other", map[string]string{"owner": owner.URL}, nil, 0)

	got, outcome, ok := fill(context.Background(), code)
	if !ok || outcome != nil {
		t.Fatalf("fill: ok=%v outcome=%v", ok, outcome)
	}
	assertResultEqual(t, got, want)

	// The no-functions outcome survives too.
	got, outcome, ok = fill(context.Background(), empty)
	if !ok || outcome != core.ErrNoFunctions || len(got.Functions) != 0 {
		t.Fatalf("no-functions round trip: ok=%v outcome=%v functions=%d", ok, outcome, len(got.Functions))
	}
}

// soleOwnerRing is a one-shard ring: "owner" owns every key, so a fill
// hook on any other shard always asks it.
func soleOwnerRing() *Ring {
	ring := NewRing()
	ring.Add("owner")
	return ring
}

func assertResultEqual(t *testing.T, got, want core.Result) {
	t.Helper()
	if len(got.Functions) != len(want.Functions) {
		t.Fatalf("functions = %d, want %d", len(got.Functions), len(want.Functions))
	}
	for i := range want.Functions {
		g, w := got.Functions[i], want.Functions[i]
		if g.Selector != w.Selector {
			t.Errorf("fn %d selector = %s, want %s", i, g.Selector, w.Selector)
		}
		if g.TypeList() != w.TypeList() {
			t.Errorf("fn %d types = %s, want %s", i, g.TypeList(), w.TypeList())
		}
		if g.Language != w.Language {
			t.Errorf("fn %d language = %s, want %s", i, g.Language, w.Language)
		}
		if fmt.Sprint(g.ParamRules) != fmt.Sprint(w.ParamRules) {
			t.Errorf("fn %d rules = %v, want %v", i, g.ParamRules, w.ParamRules)
		}
	}
	if got.Rules != want.Rules {
		t.Errorf("rule stats = %v, want %v", got.Rules, want.Rules)
	}
}

func TestPeerFill(t *testing.T) {
	code, err := server.ParseBytecode([]byte(testCode))
	if err != nil {
		t.Fatal(err)
	}
	want := mustResult(t)

	// An owner answer that is not a valid fill is a miss, and the shard
	// computes: each field is validated as the store validates a record,
	// and an answer without the outcome header comes from another fill
	// wire.
	payload, err := store.EncodeResult(want)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ name, outcome, body string }{
		{"bad type", fillOK, `{"f":[{"s":"0xdeadbeef","t":["uint7"],"l":1}]}`},
		{"rule id 0", fillOK, `{"f":[{"s":"0xdeadbeef","t":["uint256"],"r":[[0]],"l":1}]}`},
		{"language 7", fillOK, `{"f":[{"s":"0xdeadbeef","t":["uint256"],"l":7}]}`},
		{"truncated JSON", fillOK, string(payload[:len(payload)/2])},
		{"unknown outcome", "maybe", string(payload)},
		{"old fill wire", "", `{"functions":[{"selector":"0xdeadbeef","types":"(uint256)","rules":[["R1"]],"language":"solidity"}]}`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			bad := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if tc.outcome != "" {
					w.Header().Set(fillOutcomeHeader, tc.outcome)
				}
				fmt.Fprint(w, tc.body)
			}))
			defer bad.Close()
			fill := PeerFill(soleOwnerRing(), "other", map[string]string{"owner": bad.URL}, nil, 0)
			if _, _, ok := fill(context.Background(), code); ok {
				t.Fatal("fill adopted an invalid answer")
			}
			computed := false
			res, err := core.NewCache(4).GetOrComputeFill(context.Background(), code, fill, func() (core.Result, error) {
				computed = true
				return want, nil
			})
			if err != nil || !computed {
				t.Fatalf("shard did not compute after a bad fill: computed=%v err=%v", computed, err)
			}
			assertResultEqual(t, res, want)
		})
	}

	// The owner shard has the result cached; its fill endpoint serves it.
	ownerCache := core.NewCache(8)
	if _, err := ownerCache.GetOrComputeFill(context.Background(), code, nil, func() (core.Result, error) { return want, nil }); err != nil {
		t.Fatal(err)
	}
	owner := httptest.NewServer(FillHandler(ownerCache, 0))
	defer owner.Close()

	// A two-shard ring where "owner" owns the key, seen from "other".
	ring := NewRing()
	ring.Add("owner")
	ownedBy, _ := ring.Owner(keccak.Sum256(code))
	if ownedBy != "owner" {
		t.Fatalf("single-shard ring owner = %q", ownedBy)
	}
	ring.Add("other")
	fill := PeerFill(ring, "other", map[string]string{"owner": owner.URL}, nil, 0)

	ownerID, _ := ring.Owner(keccak.Sum256(code))
	if ownerID == "other" {
		// The two-shard ring happens to give the key to us: peer fill
		// correctly reports a miss (we ARE the owner, nothing to fetch).
		if _, _, ok := fill(context.Background(), code); ok {
			t.Fatal("fill hit although this shard owns the key")
		}
		return
	}
	got, outcome, ok := fill(context.Background(), code)
	if !ok {
		t.Fatal("fill missed although the owner has the result cached")
	}
	if outcome != nil {
		t.Fatalf("outcome = %v", outcome)
	}
	assertResultEqual(t, got, want)

	// A cold owner is a clean miss, not an error.
	coldCache := core.NewCache(8)
	cold := httptest.NewServer(FillHandler(coldCache, 0))
	defer cold.Close()
	fillCold := PeerFill(ring, "other", map[string]string{"owner": cold.URL}, nil, 0)
	if ownerID != "other" {
		if _, _, ok := fillCold(context.Background(), code); ok {
			t.Fatal("fill hit on a cold owner")
		}
	}

	// End to end through the serving layer: a server configured with the
	// fill hook answers from the peer's cache without running a recovery.
	srv := server.New(server.Config{CacheFill: fill})
	rec := postRecover(t, srv.Handler(), testCode, "fill-e2e")
	if ownerID != "other" {
		if rec.Code != http.StatusOK {
			t.Fatalf("status = %d, body %s", rec.Code, rec.Body)
		}
		var resp server.RecoverResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		if len(resp.Functions) != 1 || resp.Functions[0].Types != "(uint256,bytes[])" {
			t.Fatalf("filled response = %+v", resp)
		}
	}
}
