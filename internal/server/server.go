// Package server is sigrecd's HTTP serving layer: it turns the recovery
// pipeline (core.RecoverContext) into a network service with bounded
// admission, singleflight request coalescing, streaming batch recovery,
// live metrics, and graceful drain.
//
// Endpoints:
//
//	POST /v1/recover        hex bytecode (raw text or {"bytecode":"0x.."}) -> JSON recovery
//	POST /v1/recover/batch  NDJSON of bytecodes -> NDJSON of per-contract results, streamed as they complete
//	GET  /metrics           Prometheus-flavoured exposition (pipeline + per-endpoint series)
//	GET  /healthz           liveness + pool state; 503 while draining
//
// Backpressure: recoveries run on a bounded worker pool behind a bounded
// admission queue. A single recover that finds the queue full is shed with
// 429 + Retry-After instead of queueing unboundedly; batch items instead
// block on the queue (bounded by its depth), which propagates backpressure
// to the streaming connection. Concurrent requests for the same bytecode
// coalesce singleflight-style in front of the shared keccak-keyed result
// cache, so a thundering herd on one contract costs one recovery.
package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sigrec/internal/core"
	"sigrec/internal/eventlog"
	"sigrec/internal/obs"
	"sigrec/internal/slo"
)

// Defaults applied by New for zero Config fields.
const (
	DefaultQueueDepth   = 64
	DefaultCacheEntries = 4096
	DefaultMaxBodyBytes = 8 << 20
	DefaultRetryAfter   = time.Second
)

// Config sizes the serving layer. The zero value selects sane defaults.
type Config struct {
	// Workers bounds concurrent recoveries (<= 0 selects GOMAXPROCS).
	// Within one recovery the engine explores selectors in parallel on
	// its own, up to min(GOMAXPROCS, selectors); that is not configurable.
	Workers int
	// QueueDepth bounds recoveries admitted but not yet running; beyond it
	// single recovers are shed with 429 (<= 0 selects DefaultQueueDepth).
	QueueDepth int
	// Timeout is the per-request recovery deadline mapped onto
	// core.Options/ctx (0 = unbounded). On expiry the request fails with
	// 504 rather than occupying a worker indefinitely.
	Timeout time.Duration
	// StepBudget and MaxPaths bound each TASE exploration (core.Options).
	StepBudget int
	MaxPaths   int
	// Cache is the shared result cache; nil allocates a private cache of
	// CacheEntries results.
	Cache *core.Cache
	// CacheEntries sizes the private cache when Cache is nil (<= 0 selects
	// DefaultCacheEntries).
	CacheEntries int
	// MaxBodyBytes caps a single-recover body and each batch line (<= 0
	// selects DefaultMaxBodyBytes).
	MaxBodyBytes int64
	// RetryAfter is the client backoff hint sent with 429 responses (<= 0
	// selects DefaultRetryAfter; rounded up to whole seconds).
	RetryAfter time.Duration
	// Logger, when non-nil, receives one structured access-log record per
	// request, carrying the request ID echoed on the response.
	Logger *slog.Logger
	// Tracer, when non-nil, arms per-recovery span collection: every
	// recovery gets a span tree and the slowest/truncated ones are retained
	// in the tracer's flight recorder, served at GET /debug/slowest.
	Tracer *obs.Tracer
	// EventLog, when non-nil, receives one wide event per recovery run by
	// the pipeline (server-level cache hits and coalesced waiters emit
	// nothing — they run no recovery). The most recent events are also
	// served at GET /debug/events.
	EventLog *eventlog.Writer
	// CacheFill, when non-nil, is consulted on every local cache miss
	// before computing — the cluster peer-fill hook: when the hash ring
	// says another shard owns this bytecode, fetch its cached result
	// instead of recomputing. A miss (or error) falls through to the local
	// pipeline, so the hook can only save work, never fail a request.
	CacheFill core.FillFunc
	// SLO, when non-nil, is the burn-rate evaluator whose state is served
	// at GET /debug/slo.
	SLO *slo.Evaluator
	// Service names this process on stitched trace spans served at
	// GET /debug/trace/{id} (empty selects "sigrecd"; cluster shards pass
	// their shard id).
	Service string
	// TracePeers maps peer service name -> base URL for the /debug/trace
	// fan-out, so one shard answers with the whole fleet's half-traces
	// stitched together. Typically the same map as the peer-fill pool.
	TracePeers map[string]string
}

// Server is the HTTP serving layer. Create with New, expose with Handler,
// stop with Drain.
type Server struct {
	cfg      Config
	cache    *core.Cache
	pool     *pool
	mux      *http.ServeMux
	draining atomic.Bool
	// recoverFn is the pipeline entry point; tests stub it to control
	// timing deterministically.
	recoverFn func(ctx context.Context, code []byte, opts core.Options) (core.Result, error)
}

// New builds a Server from cfg, applying defaults to zero fields and
// starting the worker pool.
func New(cfg Config) *Server {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = DefaultQueueDepth
	}
	if cfg.CacheEntries <= 0 {
		cfg.CacheEntries = DefaultCacheEntries
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = DefaultMaxBodyBytes
	}
	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = DefaultRetryAfter
	}
	if cfg.Cache == nil {
		cfg.Cache = core.NewCache(cfg.CacheEntries)
	}
	s := &Server{
		cfg:       cfg,
		cache:     cfg.Cache,
		pool:      newPool(cfg.Workers, cfg.QueueDepth),
		recoverFn: core.RecoverContext,
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/recover", s.handleRecover)
	mux.HandleFunc("POST /v1/recover/batch", s.handleBatch)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /debug/slowest", s.handleSlowest)
	mux.HandleFunc("GET /debug/events", s.handleEvents)
	mux.HandleFunc("GET /debug/slo", s.handleSLO)
	service := cfg.Service
	if service == "" {
		service = "sigrecd"
	}
	mux.Handle("GET /debug/trace/{id}", TraceHandler(TraceOptions{
		Service: service,
		Tracer:  cfg.Tracer,
		Peers:   cfg.TracePeers,
	}))
	s.mux = mux
	return s
}

// Handler returns the root http.Handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Mount attaches an extra handler to the server's mux, e.g. the cluster
// peer-fill endpoint. pattern follows http.ServeMux syntax ("POST /x").
// Call before Handler is serving traffic.
func (s *Server) Mount(pattern string, h http.Handler) { s.mux.Handle(pattern, h) }

// Cache returns the server's shared result cache, so composing layers
// (the cluster fill endpoint) can serve peeks from it.
func (s *Server) Cache() *core.Cache { return s.cache }

// ResolvedConfig returns the Config after New applied defaults, so callers
// can report the effective serving parameters.
func (s *Server) ResolvedConfig() Config { return s.cfg }

// BeginDrain stops admitting new requests: recover endpoints return 503
// and healthz flips to "draining" so load balancers stop routing here.
// Inflight requests keep running.
func (s *Server) BeginDrain() { s.draining.Store(true) }

// Drain gracefully stops the serving layer: admission closes, then every
// queued and inflight recovery finishes (bounded by ctx). Call after the
// enclosing http.Server has stopped accepting connections.
func (s *Server) Drain(ctx context.Context) error {
	s.BeginDrain()
	return s.pool.close(ctx)
}

// options maps the server budgets onto the pipeline Options. The shared
// cache is not set here: caching, peer fill and coalescing happen one
// level up in recoverItem's Cache.GetOrComputeFill call, which brackets
// admission to the worker pool.
func (s *Server) options() core.Options {
	return core.Options{
		StepBudget: s.cfg.StepBudget,
		MaxPaths:   s.cfg.MaxPaths,
		EventLog:   s.cfg.EventLog,
	}
}

// recoverItem runs one contract through coalescing, admission, and the
// worker pool. blocking selects batch semantics (backpressure) over
// single-recover semantics (shed with errQueueFull).
func (s *Server) recoverItem(ctx context.Context, code []byte, blocking bool) (core.Result, error) {
	if s.cfg.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.Timeout)
		defer cancel()
	}
	var res core.Result
	var err error
	fill := s.cfg.CacheFill
	if fill != nil {
		inner := fill
		fill = func(fctx context.Context, code []byte) (core.Result, error, bool) {
			fres, ferr, ok := inner(fctx, code)
			if ok {
				// A peer fill resolves the request without a worker ever
				// owning the recovery, so the winner goroutine (the only
				// writer at this point) finishes the trace here: the fill
				// span recorded by the hook stays visible in the flight
				// recorder and the exported trace.
				obs.FromContext(fctx).Finish(false, nil)
			}
			return fres, ferr, ok
		}
	}
	// A waiter coalesced onto a flight whose winner's context died inherits
	// that context error; when our own context is still live, retry once —
	// the dead flight is gone, so the retry computes (or coalesces onto a
	// live flight).
	for attempt := 0; attempt < 2; attempt++ {
		res, err = s.cache.GetOrComputeFill(ctx, code, fill, func() (core.Result, error) {
			return s.runPooled(ctx, code, blocking)
		})
		if isCtxErr(err) && ctx.Err() == nil {
			continue
		}
		break
	}
	return res, err
}

// runPooled executes one recovery on the worker pool; it is the compute
// half of GetOrComputeFill, so it runs once per coalesced herd.
func (s *Server) runPooled(ctx context.Context, code []byte, blocking bool) (core.Result, error) {
	var (
		res  core.Result
		rerr error
	)
	// The queue span measures admission wait: started before submit, ended
	// when a worker picks the job up (or submission fails). Nil-safe when
	// the request is untraced. The same wait goes into the wide-event scope
	// (the worker sets it before the recovery runs, on its own goroutine,
	// so no synchronization is needed).
	qStart := time.Now()
	qsp := obs.FromContext(ctx).Span("queue")
	j := &job{done: make(chan struct{})}
	j.run = func() {
		qsp.End()
		if sc := eventlog.ScopeFromContext(ctx); sc != nil {
			sc.QueueUS = time.Since(qStart).Microseconds()
		}
		// The worker owns the recovery from here: it appends every pipeline
		// span and finishes the trace (obs recoveries are single-writer).
		// Requests that never reach a worker — shed, coalesced onto another
		// flight, cache hits — leave their recovery unfinished and unrecorded,
		// which is right: the flight recorder retains recoveries, not requests.
		rec := obs.FromContext(ctx)
		// The requester may have gone away while the job sat in the queue;
		// don't burn a worker on a result nobody reads. Finishing with the
		// context error keeps died-in-queue waits visible in /debug/slowest.
		if err := ctx.Err(); err != nil {
			rerr = err
			rec.Finish(false, err)
			return
		}
		res, rerr = s.recoverFn(ctx, code, s.options())
		rec.Finish(res.Truncated, rerr)
	}
	var err error
	if blocking {
		err = s.pool.submit(ctx, j)
	} else {
		err = s.pool.trySubmit(j)
	}
	if err != nil {
		qsp.End()
		return core.Result{}, err
	}
	select {
	case <-j.done:
		return res, rerr
	case <-ctx.Done():
		// The worker still runs (and skips) the job; the flight resolves to
		// the context error for every coalesced waiter.
		return core.Result{}, ctx.Err()
	}
}

func isCtxErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// --- POST /v1/recover ---

func (s *Server) handleRecover(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	mRecover.requests.Inc()
	mRecover.inflight.Add(1)
	defer mRecover.inflight.Add(-1)
	defer func() { mRecover.latency.ObserveDuration(time.Since(start)) }()

	requestID := ensureRequestID(w, r)
	status := http.StatusOK
	defer func() { s.logRequest(r, requestID, status, start) }()

	if s.draining.Load() {
		status = http.StatusServiceUnavailable
		writeError(w, status, "server is draining")
		return
	}
	code, err := readBytecode(w, r, s.cfg.MaxBodyBytes)
	if err != nil {
		mRecover.badInput.Inc()
		status = inputStatus(err)
		writeError(w, status, err.Error())
		return
	}
	// The worker that runs the recovery also finishes the trace (see
	// runPooled); the handler only arms the context — the tracer's span
	// tree and the wide-event scope both ride it. An inbound traceparent
	// (the router's attempt span) parents the recovery under the caller's
	// trace; a malformed one starts a fresh root, never an error.
	parent := extractTraceContext(r)
	ctx, sc := eventlog.NewContext(r.Context(), requestID)
	sc.TraceID = obs.TraceIDFor(parent, requestID)
	ctx, _ = s.cfg.Tracer.StartRoot(ctx, "recovery", requestID, parent)
	res, err := s.recoverItem(ctx, code, false)
	switch {
	case errors.Is(err, errQueueFull):
		mRecover.shed.Inc()
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds(s.cfg.RetryAfter)))
		status = http.StatusTooManyRequests
		writeError(w, status, "admission queue full; retry later")
	case errors.Is(err, errDraining):
		status = http.StatusServiceUnavailable
		writeError(w, status, "server is draining")
	case isCtxErr(err):
		status = http.StatusGatewayTimeout
		writeError(w, status, "recovery deadline exceeded")
	case err != nil && !errors.Is(err, core.ErrNoFunctions):
		mRecover.errors.Inc()
		status = http.StatusInternalServerError
		writeError(w, status, err.Error())
	default:
		// ErrNoFunctions is a legitimate outcome for the service: bytecode
		// with no recoverable dispatcher yields an empty function list.
		writeJSON(w, http.StatusOK, ResponseFromResult(res, nil))
	}
}

// --- POST /v1/recover/batch ---

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	mBatch.requests.Inc()
	mBatch.inflight.Add(1)
	defer mBatch.inflight.Add(-1)
	defer func() { mBatch.latency.ObserveDuration(time.Since(start)) }()

	requestID := ensureRequestID(w, r)
	if s.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, "server is draining")
		s.logRequest(r, requestID, http.StatusServiceUnavailable, start)
		return
	}
	parent := extractTraceContext(r)
	traceID := obs.TraceIDFor(parent, requestID)
	ctx := r.Context()
	w.Header().Set("Content-Type", "application/x-ndjson")
	rc := http.NewResponseController(w)
	// HTTP/1 is half-duplex by default: the first response write closes
	// the request body. Batch streams results while still reading input,
	// so opt in to full duplex (HTTP/2 ignores this; it always is).
	_ = rc.EnableFullDuplex()

	// Reader side: parse lines and fan them out to the pool, at most
	// Workers items in flight per batch; writer side (below) streams each
	// result the moment it completes. close(out) after the last item is
	// what ends the response.
	out := make(chan BatchResult, s.cfg.Workers)
	go func() {
		defer close(out)
		var wg sync.WaitGroup
		defer wg.Wait()
		sem := make(chan struct{}, s.cfg.Workers)
		sc := bufio.NewScanner(r.Body)
		sc.Buffer(make([]byte, 64<<10), int(s.cfg.MaxBodyBytes))
		idx := 0
		for sc.Scan() {
			line := bytes.TrimSpace(sc.Bytes())
			if len(line) == 0 {
				continue
			}
			i := idx
			idx++
			mBatchContracts.Inc()
			code, perr := parseBytecode(line)
			if perr != nil {
				mBatch.badInput.Inc()
				out <- BatchResult{Index: i, Error: perr.Error()}
				continue
			}
			select {
			case sem <- struct{}{}:
			case <-ctx.Done():
				out <- BatchResult{Index: i, Error: ctx.Err().Error()}
				continue
			}
			wg.Add(1)
			go func(i int, code []byte) {
				defer wg.Done()
				defer func() { <-sem }()
				// Each batch item is its own recovery — its own span tree
				// and wide-event scope, finished by the worker that runs
				// it; all share the request's ID (and therefore one trace)
				// so the flight recorder and event log group them.
				ictx, isc := eventlog.NewContext(ctx, requestID)
				isc.TraceID = traceID
				ictx, _ = s.cfg.Tracer.StartRoot(ictx, "recovery", requestID, parent)
				res, err := s.recoverItem(ictx, code, true)
				out <- batchResult(i, res, err)
			}(i, code)
		}
		if err := sc.Err(); err != nil {
			mBatch.badInput.Inc()
			out <- BatchResult{Index: idx, Error: "read body: " + err.Error()}
		}
	}()

	enc := json.NewEncoder(w)
	clientGone := false
	items := 0
	for br := range out {
		items++
		if clientGone {
			continue // keep draining so the fan-out goroutines can finish
		}
		if err := enc.Encode(br); err != nil {
			clientGone = true
			continue
		}
		_ = rc.Flush()
	}
	s.logRequest(r, requestID, http.StatusOK, start, slog.Int("items", items))
}

// batchResult folds one item's outcome into a wire line and meters
// runtime failures (parse failures were already counted as bad input).
func batchResult(i int, res core.Result, err error) BatchResult {
	switch {
	case err == nil || errors.Is(err, core.ErrNoFunctions):
		resp := ResponseFromResult(res, nil)
		return BatchResult{Index: i, Functions: resp.Functions, Truncated: resp.Truncated}
	default:
		mBatch.errors.Inc()
		return BatchResult{Index: i, Error: err.Error()}
	}
}

// --- GET /metrics ---

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	mMetricsEP.requests.Inc()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if _, err := reg.Snapshot().WriteTo(w); err != nil {
		mMetricsEP.errors.Inc()
	}
}

// --- GET /healthz ---

// healthResponse is the /healthz body.
type healthResponse struct {
	Status        string `json:"status"`
	Workers       int    `json:"workers"`
	QueueDepth    int    `json:"queueDepth"`
	QueueCapacity int    `json:"queueCapacity"`
	CacheEntries  int    `json:"cacheEntries"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	mHealthz.requests.Inc()
	h := healthResponse{
		Status:        "ok",
		Workers:       s.cfg.Workers,
		QueueDepth:    s.pool.queued(),
		QueueCapacity: s.cfg.QueueDepth,
		CacheEntries:  s.cache.Len(),
	}
	status := http.StatusOK
	if s.draining.Load() {
		h.Status = "draining"
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, h)
}

// --- request/response plumbing ---

var errEmptyBody = errors.New("server: empty request body")

// readBytecode reads and decodes the request body, which is either a bare
// hex string (optionally 0x-prefixed) or JSON: {"bytecode":"0x.."} or a
// JSON string.
func readBytecode(w http.ResponseWriter, r *http.Request, maxBytes int64) ([]byte, error) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBytes))
	if err != nil {
		return nil, fmt.Errorf("server: read body: %w", err)
	}
	return parseBytecode(body)
}

// ParseBytecode decodes one contract's bytecode from a request body or
// batch line — a bare hex string (optionally 0x-prefixed) or JSON
// ({"bytecode":"0x.."} or a JSON string). Exported so the cluster router
// can validate and canonicalize input with exactly the shard's rules
// before hashing it onto the ring.
func ParseBytecode(b []byte) ([]byte, error) { return parseBytecode(b) }

// parseBytecode decodes one contract's bytecode from a request body or
// batch line. Malformed hex yields the typed *core.HexInputError.
func parseBytecode(b []byte) ([]byte, error) {
	t := bytes.TrimSpace(b)
	if len(t) == 0 {
		return nil, errEmptyBody
	}
	hexStr := string(t)
	if t[0] == '{' || t[0] == '"' {
		hexStr = ""
		if t[0] == '"' {
			if err := json.Unmarshal(t, &hexStr); err != nil {
				return nil, fmt.Errorf("server: malformed JSON string: %w", err)
			}
		} else {
			var req struct {
				Bytecode string `json:"bytecode"`
			}
			if err := json.Unmarshal(t, &req); err != nil {
				return nil, fmt.Errorf("server: malformed JSON body: %w", err)
			}
			hexStr = req.Bytecode
		}
		if strings.TrimSpace(hexStr) == "" {
			return nil, errors.New(`server: JSON body missing "bytecode"`)
		}
	}
	code, err := core.DecodeHex(hexStr)
	if err != nil {
		return nil, err
	}
	if len(code) == 0 {
		return nil, errEmptyBody
	}
	return code, nil
}

// inputStatus maps an input-parsing error to its HTTP status: an
// oversized body is 413, everything else (typed hex errors, empty or
// malformed bodies) is 400.
func inputStatus(err error) int {
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

func retryAfterSeconds(d time.Duration) int {
	secs := int((d + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return secs
}

// errorResponse is the JSON error body every non-2xx response carries.
type errorResponse struct {
	Error string `json:"error"`
}

func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, errorResponse{Error: msg})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}
