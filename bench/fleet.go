package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"sigrec/internal/abi"
	"sigrec/internal/cluster"
	"sigrec/internal/core"
	"sigrec/internal/corpus"
	"sigrec/internal/evm"
	"sigrec/internal/keccak"
	"sigrec/internal/server"
)

// The fleet-open traffic mix and service level.
const (
	fleetHot        = 64  // contracts in the hot set, warmed in set-up
	fleetHotShare   = 0.6 // share of requests that go to the hot set
	fleetSynthShare = 0.2 // share of never-seen contracts drawn from dataset 2
	fleetSynthSets  = 20  // dataset-2 draws the synthesized miss bases come from
	fleetConns      = 2   // load goroutines, one connection each
	fleetSLO        = 50 * time.Millisecond
	fleetSLOShare   = 0.99 // share of sent requests that must meet fleetSLO
)

// fleetReq is a contract requests are made of, with the functions every
// answer for it must hold.
type fleetReq struct {
	code []byte
	body []byte // the request body: code in hex
	fns  []fnWant
}

// newFleetReq builds the request for c. The wire carries canonical ABI
// types, in which Vyper's bounded bytes[n] and string[n] read as bytes and
// string, so answers are checked against the declarations' canonical form.
func newFleetReq(c contract) (*fleetReq, error) {
	fns := append([]fnWant(nil), c.fns...)
	for i, f := range fns {
		sig, err := abi.ParseSignature(f.sig.Name + f.sig.TypeList())
		if err != nil {
			return nil, fmt.Errorf("declared %s: %w", f.sig.Name, err)
		}
		fns[i].sig = sig
	}
	return &fleetReq{code: c.code, body: []byte(hex.EncodeToString(c.code)), fns: fns}, nil
}

// withTrailer returns the request body for req's code followed by an
// INVALID opcode and the eight bytes of id, the way compilers append
// metadata after the code: a bytecode no other request carries, so the
// fleet has never cached it, whose recovery is req's.
func (req *fleetReq) withTrailer(id uint64) []byte {
	var t [9]byte
	t[0] = byte(evm.INVALID)
	binary.BigEndian.PutUint64(t[1:], id)
	return hex.AppendEncode(append(make([]byte, 0, len(req.body)+2*len(t)), req.body...), t[:])
}

// fleetInputs are the contracts the fleet's requests are drawn from: the
// hot set, sent as they are, and the miss bases, sent with a trailer that
// makes every miss request a never-seen bytecode.
type fleetInputs struct {
	seed          int64
	hot           []*fleetReq
	corpus, synth []*fleetReq // miss bases of corpus and dataset-2 shape
}

// fleetLoad generates the contracts from the seed: one corpus holds the
// hot set and the corpus-shaped miss bases, so every function name, and so
// every bytecode, is distinct; the dataset-2 bases come from other seeds.
func fleetLoad(seed int64) (*fleetInputs, error) {
	c, err := corpus.Generate(corpus.DefaultConfig(seed))
	if err != nil {
		return nil, err
	}
	entries := c.Entries
	rand.New(rand.NewSource(seed)).Shuffle(len(entries), func(i, j int) { entries[i], entries[j] = entries[j], entries[i] })
	in := &fleetInputs{seed: seed}
	for i, e := range entries {
		req, err := newFleetReq(contract{code: e.Code, fns: []fnWant{newFnWant(e.Sig, e.Flaw)}})
		if err != nil {
			return nil, err
		}
		if i < fleetHot {
			in.hot = append(in.hot, req)
		} else {
			in.corpus = append(in.corpus, req)
		}
	}
	cs, err := synthContracts(seed+1000, fleetSynthSets)
	if err != nil {
		return nil, err
	}
	for _, c := range cs {
		req, err := newFleetReq(c)
		if err != nil {
			return nil, err
		}
		in.synth = append(in.synth, req)
	}
	return in, nil
}

// requests draws the requests one load goroutine sends in one step, from
// a generator seeded by the run's seed, the step and the goroutine: 60%
// hot-set requests, 40% never-seen contracts (80% corpus shape, 20%
// dataset-2 shape).
type requests struct {
	in  *fleetInputs
	rng *rand.Rand
	tag uint64 // step and goroutine, which keep trailers distinct
	n   uint64
}

func (in *fleetInputs) requests(step, g int) *requests {
	id := int64(step*fleetConns + g)
	return &requests{in: in, rng: rand.New(rand.NewSource(in.seed<<16 ^ id)), tag: uint64(id) << 40}
}

// next returns the next request's body and the contract it checks against.
func (r *requests) next() ([]byte, *fleetReq) {
	if r.rng.Float64() < fleetHotShare {
		h := r.in.hot[r.rng.Intn(len(r.in.hot))]
		return h.body, h
	}
	pool := r.in.corpus
	if r.rng.Float64() < fleetSynthShare {
		pool = r.in.synth
	}
	base := pool[r.rng.Intn(len(pool))]
	r.n++
	return base.withTrailer(r.tag | r.n), base
}

// fleetRig is a cluster.Router in front of two server shards, each with
// one recovery worker, all on loopback listeners in this process.
type fleetRig struct {
	shards    []*server.Server
	shardURLs []string
	router    *cluster.Router
	routerURL string
	servers   []*http.Server
	serving   sync.WaitGroup
}

func startFleet() (*fleetRig, error) {
	f := &fleetRig{}
	var addrs []cluster.ShardAddr
	for i := 0; i < 2; i++ {
		s := server.New(server.Config{Workers: 1})
		f.shards = append(f.shards, s)
		url, err := f.serve(s.Handler())
		if err != nil {
			f.close()
			return nil, err
		}
		f.shardURLs = append(f.shardURLs, url)
		addrs = append(addrs, cluster.ShardAddr{ID: fmt.Sprintf("s%d", i+1), URL: url})
	}
	rt, err := cluster.NewRouter(cluster.Config{Shards: addrs})
	if err != nil {
		f.close()
		return nil, err
	}
	f.router = rt
	if f.routerURL, err = f.serve(rt.Handler()); err != nil {
		f.close()
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := cluster.WaitPoolHealthy(ctx, http.DefaultClient, f.routerURL+"/healthz", len(addrs)); err != nil {
		f.close()
		return nil, fmt.Errorf("router never saw its shards healthy: %w", err)
	}
	return f, nil
}

func (f *fleetRig) serve(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	srv := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	f.servers = append(f.servers, srv)
	f.serving.Add(1)
	go func() {
		defer f.serving.Done()
		_ = srv.Serve(ln) // returns ErrServerClosed once close shuts it down
	}()
	return "http://" + ln.Addr().String(), nil
}

// close stops the router's listener first, then the router's pollers,
// then the shards, and waits for every listener goroutine to return.
func (f *fleetRig) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for i := len(f.servers) - 1; i >= 0; i-- {
		_ = f.servers[i].Shutdown(ctx) // a timeout leaves nothing to undo: the process is exiting
	}
	if f.router != nil {
		f.router.Close()
	}
	for _, s := range f.shards {
		_ = s.Drain(ctx)
	}
	f.serving.Wait()
	http.DefaultClient.CloseIdleConnections()
}

// newLoadClient returns a client that holds at most one connection.
func newLoadClient() *http.Client {
	return &http.Client{
		Timeout:   30 * time.Second,
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
	}
}

// outcome classifies one answered request.
type outcome struct {
	ok         bool // 200 with every checkable function right
	status     int
	wrong      int
	exact, fns int
}

// post sends body to url and checks the answer against req's functions.
func post(c *http.Client, url string, body []byte, req *fleetReq) outcome {
	resp, err := c.Post(url+"/v1/recover", "text/plain", bytes.NewReader(body))
	if err != nil {
		return outcome{fns: len(req.fns)}
	}
	answer, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return outcome{status: resp.StatusCode, fns: len(req.fns)}
	}
	return check(resp.StatusCode, answer, req)
}

// check decodes a server.RecoverResponse and verifies it against the
// request's declared functions.
func check(status int, body []byte, req *fleetReq) outcome {
	o := outcome{status: status, fns: len(req.fns)}
	if status != http.StatusOK {
		return o
	}
	var rr server.RecoverResponse
	if err := json.Unmarshal(body, &rr); err != nil {
		return o
	}
	got := core.Result{Truncated: rr.Truncated}
	for _, f := range rr.Functions {
		sel, err := hex.DecodeString(strings.TrimPrefix(f.Selector, "0x"))
		sig, perr := abi.ParseSignature("f" + f.Types)
		if err != nil || perr != nil || len(sel) != 4 {
			return o
		}
		got.Functions = append(got.Functions, core.RecoveredFunction{Selector: abi.Selector(sel), Inputs: sig.Inputs, Truncated: f.Truncated})
	}
	o.wrong, o.exact = verify(got, req.fns)
	o.ok = o.wrong == 0
	return o
}

// stepResult is what one rate step measured.
type stepResult struct {
	rate                int // 0 for the closed-loop saturation step
	scheduled, sent, ok int
	failed, wrong       int
	exact, fns          int
	withinSLO           int
	lat, late           []time.Duration
	done                []time.Duration // completion of each ok request, from the step's start
}

// runStep sends requests for dur from fleetConns goroutines. At a rate,
// request i is due at start + i/rate; latency is timed from the due time,
// so a stalled connection charges the wait to every request queued behind
// it, and late is how far behind its schedule the sender ran. Requests
// still unsent when the step ends are not sent. At rate 0 every goroutine
// sends its next request as soon as the last is answered: the fleet's
// capacity on two connections.
func runStep(clients []*http.Client, url string, in *fleetInputs, step, rate int, dur time.Duration) stepResult {
	res := stepResult{rate: rate, scheduled: int(float64(rate) * dur.Seconds())}
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	end := start.Add(dur)
	var interval time.Duration
	if rate > 0 {
		interval = time.Second / time.Duration(rate)
	}
	for g, c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var local stepResult
			reqs := in.requests(step, g)
			for i := g; rate == 0 || i < res.scheduled; i += len(clients) {
				body, req := reqs.next()
				due := start.Add(time.Duration(i) * interval)
				if rate == 0 {
					due = time.Now()
				} else if wait := time.Until(due); wait > 0 {
					time.Sleep(wait)
				}
				sendAt := time.Now()
				if !sendAt.Before(end) {
					break
				}
				o := post(c, url, body, req)
				lat := time.Since(due)
				local.sent++
				local.lat = append(local.lat, lat)
				local.late = append(local.late, sendAt.Sub(due))
				local.wrong += o.wrong
				local.exact += o.exact
				local.fns += o.fns
				if o.ok {
					local.ok++
					local.done = append(local.done, time.Since(start))
					if lat <= fleetSLO {
						local.withinSLO++
					}
				} else {
					local.failed++
				}
			}
			mu.Lock()
			defer mu.Unlock()
			res.sent += local.sent
			res.ok += local.ok
			res.failed += local.failed
			res.wrong += local.wrong
			res.exact += local.exact
			res.fns += local.fns
			res.withinSLO += local.withinSLO
			res.lat = append(res.lat, local.lat...)
			res.late = append(res.late, local.late...)
			res.done = append(res.done, local.done...)
		}()
	}
	wg.Wait()
	return res
}

// fleetWindows is how many equal windows a step's throughput is taken
// over.
const fleetWindows = 10

// windowRate is the median over fleetWindows equal windows of the step of
// the requests answered correctly per second, so a stall confined to one
// window does not move it.
func (s stepResult) windowRate(dur time.Duration) float64 {
	w := dur / fleetWindows
	rates := make([]float64, fleetWindows)
	for _, d := range s.done {
		if i := int(d / w); i < fleetWindows {
			rates[i] += 1 / w.Seconds()
		}
	}
	return median(rates)
}

// meetsSLO reports whether the step kept up: the senders sent all their
// requests within the step but the last one each (whose due time may fall
// on the step's end), so the backlog did not grow; none failed; and enough
// finished within fleetSLO of their due time.
func (s stepResult) meetsSLO() bool {
	return s.sent >= s.scheduled-fleetConns && s.failed == 0 &&
		float64(s.withinSLO) >= fleetSLOShare*float64(s.sent)
}

// runFleetOpen measures the fleet through the router: fixed-interval
// arrivals at each rate of fleetRates, one step each, over half the
// measured time, then the closed-loop saturation step over the other half.
func runFleetOpen(cfg runConfig, r *report) error {
	measure := cfg.measure
	if cfg.traced {
		measure /= 2
	}
	stepDur := measure / 2 / time.Duration(len(fleetRates))
	satDur := measure - stepDur*time.Duration(len(fleetRates))
	type state struct {
		in  *fleetInputs
		rig *fleetRig
	}
	st, setupS, err := repeatSetup(func() (*state, error) {
		in, err := fleetLoad(cfg.seed)
		if err != nil {
			return nil, err
		}
		rig, err := startFleet()
		if err != nil {
			return nil, err
		}
		// Warm the hot set: each hot contract is then cached on the shard
		// that owns it.
		c := newLoadClient()
		defer c.CloseIdleConnections()
		for _, h := range in.hot {
			if o := post(c, rig.routerURL, h.body, h); !o.ok {
				rig.close()
				return nil, fmt.Errorf("warming the hot set: status %d, %d wrong", o.status, o.wrong)
			}
		}
		return &state{in, rig}, nil
	}, func(s *state) { s.rig.close() })
	if err != nil {
		return err
	}
	defer st.rig.close()
	r.set("setup_s", setupS)

	clients := make([]*http.Client, fleetConns)
	for i := range clients {
		clients[i] = newLoadClient()
		defer clients[i].CloseIdleConnections()
	}
	runtime.GC()
	c0, rc0, u0 := readCounters(), st.rig.router.Registry().Snapshot().Counters, readUsage()
	steps := make([]stepResult, len(fleetRates))
	for i, rate := range fleetRates {
		steps[i] = runStep(clients, st.rig.routerURL, st.in, i, rate, stepDur)
	}
	sat := runStep(clients, st.rig.routerURL, st.in, len(fleetRates), 0, satDur)
	u, d := readUsage().sub(u0), readCounters().sub(c0)
	rc := st.rig.router.Registry().Snapshot().Counters

	var ok, exact, fns int
	for _, s := range append(steps, sat) {
		r.attempted += int64(s.sent)
		r.failed += int64(s.failed)
		r.wrong += int64(s.wrong)
		ok += s.ok
		exact += s.exact
		fns += s.fns
	}
	// Latency is the light-load step's: at higher rates queueing on the two
	// connections amplifies every scheduling hiccup, which the per-rate
	// metrics below still show.
	light := steps[0]
	r.set("throughput_per_s", sat.windowRate(satDur))
	r.set("latency_p50_ms", median(durationsMS(light.lat)))
	r.setUsage(u, int64(ok))
	r.setLatency(light.lat)
	r.setPipeline(d, int64(ok))
	r.setCheck(ratio(float64(exact), float64(fns)))
	r.set("server.errors", float64(d["sigrecd_recover_errors_total"]))
	r.set("server.shed", float64(d["sigrecd_recover_shed_total"]))
	r.set("cluster.retries", float64(rc["cluster_router_retries_total"]-rc0["cluster_router_retries_total"]))
	r.set("cluster.hedges", float64(rc["cluster_router_hedges_fired_total"]-rc0["cluster_router_hedges_fired_total"]))
	maxRate := 0
	for _, s := range steps {
		lat, late := durationsMS(s.lat), durationsMS(s.late)
		sort.Float64s(lat)
		sort.Float64s(late)
		r.set(fmt.Sprintf("fleet.p50_ms.r%d", s.rate), percentile(lat, 50))
		r.set(fmt.Sprintf("fleet.p99_ms.r%d", s.rate), percentile(lat, 99))
		r.set(fmt.Sprintf("fleet.late_p99_ms.r%d", s.rate), percentile(late, 99))
		r.set(fmt.Sprintf("fleet.sent.r%d", s.rate), float64(s.sent))
		r.set(fmt.Sprintf("fleet.failed.r%d", s.rate), float64(s.failed))
		if s.meetsSLO() && s.rate > maxRate {
			maxRate = s.rate
		}
		fmt.Fprintf(os.Stderr, "fleet %5d/s: sent %5d/%5d ok %5d failed %d p50 %.3fms p99 %.3fms late p99 %.3fms\n",
			s.rate, s.sent, s.scheduled, s.ok, s.failed, percentile(lat, 50), percentile(lat, 99), percentile(late, 99))
	}
	r.set("fleet.max_rate_per_s", float64(maxRate))
	satLat := durationsMS(sat.lat)
	sort.Float64s(satLat)
	r.set("fleet.sat_p50_ms", percentile(satLat, 50))
	fmt.Fprintf(os.Stderr, "fleet closed loop: sent %5d ok %5d failed %d, %.0f/s, p50 %.3fms\n",
		sat.sent, sat.ok, sat.failed, sat.windowRate(satDur), percentile(satLat, 50))
	if !cfg.traced {
		return nil
	}
	return fleetLayers(cfg, r, st.rig, st.in.hot, cfg.measure/2)
}

// fleetLayers sends a sequential sample of hot-set requests three ways:
// into shard 1's handler in process, to shard 1 over loopback, and through
// the router. Every request is a cache hit, so the differences of the
// medians are the socket and router hops. Alternate rounds run untraced;
// their router medians against the traced ones give the tracing overhead.
func fleetLayers(cfg runConfig, r *report, rig *fleetRig, hot []*fleetReq, d time.Duration) error {
	c := newLoadClient()
	defer c.CloseIdleConnections()
	for _, h := range hot { // cache every hot contract on shard 1
		if o := post(c, rig.shardURLs[0], h.body, h); !o.ok {
			return fmt.Errorf("warming shard 1: status %d", o.status)
		}
	}
	handler := rig.shards[0].Handler()
	t := newTracer(time.Now(), 1)
	var inproc, direct, routed, plain []time.Duration
	deadline := time.Now().Add(d)
	for round := 0; time.Now().Before(deadline); round++ {
		for _, h := range hot {
			if round%2 == 1 {
				dur, o := timeRequest(nil, spanRouter, func() outcome { return post(c, rig.routerURL, h.body, h) })
				plain = append(plain, dur)
				tally(r, o)
				continue
			}
			t.begin()
			root := t.start(spanRequest)
			k := t.start(spanKeccak)
			key := keccak.Sum256(h.code)
			t.end(k)
			if key == [32]byte{} {
				return errZeroKey
			}
			dur, o := timeRequest(t, spanHandler, func() outcome {
				rec := httptest.NewRecorder()
				handler.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/recover", bytes.NewReader(h.body)))
				return check(rec.Code, rec.Body.Bytes(), h)
			})
			inproc = append(inproc, dur)
			tally(r, o)
			dur, o = timeRequest(t, spanLoopback, func() outcome { return post(c, rig.shardURLs[0], h.body, h) })
			direct = append(direct, dur)
			tally(r, o)
			dur, o = timeRequest(t, spanRouter, func() outcome { return post(c, rig.routerURL, h.body, h) })
			routed = append(routed, dur)
			tally(r, o)
			t.end(root)
			t.finish()
		}
	}
	us := func(ds []time.Duration) float64 { return median(durationsMS(ds)) * 1e3 }
	r.set("server.handler_us", us(inproc))
	r.set("server.socket_us", us(direct)-us(inproc))
	r.set("cluster.router_hop_us", us(routed)-us(direct))
	r.set("trace.overhead_ratio", ratio(us(plain), us(routed)))
	r.set("keccak.us_per_key", ratio(t.layers.total(spanKeccak).Seconds()*1e6, float64(t.layers.count(spanKeccak))))
	return finishTrace(cfg, t.layers, t.layers.count(spanRequest), t)
}

// timeRequest times one request, inside a span named name.
func timeRequest(t *tracer, name string, send func() outcome) (time.Duration, outcome) {
	h := t.start(name)
	t0 := time.Now()
	o := send()
	d := time.Since(t0)
	t.end(h)
	return d, o
}

// tally counts a sampled request into the run's checks.
func tally(r *report, o outcome) {
	r.attempted++
	r.wrong += int64(o.wrong)
	if !o.ok {
		r.failed++
	}
}
