package cluster

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"time"

	"sigrec/internal/core"
	"sigrec/internal/eventlog"
	"sigrec/internal/keccak"
	"sigrec/internal/obs"
	"sigrec/internal/server"
	"sigrec/internal/store"
)

// FillPath is the intra-cluster cache-peek endpoint each shard serves.
// It is deliberately under /internal/: not part of the public API, and a
// fill can only ever read a peer's cache — never trigger a recovery — so
// a storm of fills adds no compute load to a struggling owner and cannot
// recurse (the owner answering a fill consults only its own cache). The
// version in the path is the wire's: a shard on another fill wire answers
// 404, which PeerFill treats as a miss.
const FillPath = "/internal/v2/fill"

// fillOutcomeHeader carries the recovery error of a fill answer, which the
// body (a store payload) does not: fillOK for nil, fillNoFunctions for
// core.ErrNoFunctions — the only two a cache can hold. An answer without
// one of the two is not a fill.
const (
	fillOutcomeHeader = "X-Sigrec-Fill-Outcome"
	fillOK            = "ok"
	fillNoFunctions   = "no-functions"
)

// FillHandler serves FillPath on a shard: POST hex bytecode, answer 200
// with the store payload (store.EncodeResult) and fillOutcomeHeader when
// this shard's cache holds the outcome, 404 when it does not. It never
// computes — see FillPath.
func FillHandler(cache *core.Cache, maxBody int64) http.Handler {
	if maxBody <= 0 {
		maxBody = server.DefaultMaxBodyBytes
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		raw, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBody))
		if err != nil {
			writeJSONError(w, http.StatusBadRequest, "read body: "+err.Error())
			return
		}
		code, err := server.ParseBytecode(raw)
		if err != nil {
			writeJSONError(w, http.StatusBadRequest, err.Error())
			return
		}
		res, rerr, ok := cache.Peek(code)
		if !ok {
			writeJSONError(w, http.StatusNotFound, "not cached")
			return
		}
		body, err := store.EncodeResult(res)
		if err != nil {
			writeJSONError(w, http.StatusInternalServerError, err.Error())
			return
		}
		outcome := fillOK
		if rerr != nil {
			outcome = fillNoFunctions
		}
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set(fillOutcomeHeader, outcome)
		_, _ = w.Write(body)
	})
}

// PeerFill returns the shard-side core.FillFunc: on a local cache miss,
// if the ring says another shard owns this bytecode, ask that owner's
// cache (FillPath) and adopt the answer. Owner-is-self, owner-miss, and
// every failure report !ok, which makes the caller compute locally — the
// hook is an optimization with no failure mode of its own. An answer is
// decoded by store.DecodeResult, so it is validated as a disk record is;
// one that fails, or lacks the outcome header, is a failure.
//
// The hook runs under the requesting recovery's context: the fill hop is
// recorded as a client span ("peer.fill") on the recovery's trace, and
// the request's W3C trace context travels on the wire, parenting the hop
// under the same trace the router started.
//
// self is this shard's ring id; peers maps shard id -> base URL.
func PeerFill(ring *Ring, self string, peers map[string]string, client *http.Client, timeout time.Duration) core.FillFunc {
	if client == nil {
		client = http.DefaultClient
	}
	if timeout <= 0 {
		timeout = 2 * time.Second
	}
	return func(ctx context.Context, code []byte) (core.Result, error, bool) {
		owner, ok := ring.Owner(keccak.Sum256(code))
		if !ok || owner == self {
			return core.Result{}, nil, false
		}
		base, ok := peers[owner]
		if !ok {
			return core.Result{}, nil, false
		}
		rec := obs.FromContext(ctx)
		sp := rec.Span("peer.fill")
		sp.SetStr("owner", owner)
		hit := false
		defer func() {
			if hit {
				sp.SetStr("outcome", "hit")
			} else {
				sp.SetStr("outcome", "miss")
			}
			sp.End()
		}()
		cctx, cancel := context.WithTimeout(ctx, timeout)
		defer cancel()
		body := fmt.Sprintf("0x%x", code)
		req, err := http.NewRequestWithContext(cctx, http.MethodPost, base+FillPath, bytes.NewBufferString(body))
		if err != nil {
			return core.Result{}, nil, false
		}
		req.Header.Set("Content-Type", "text/plain")
		// Propagate the trace across the fill hop, pinning the fill span's
		// id so the owner side can join exactly. Tracing off still
		// propagates the id the wide-event scope carries.
		tid := rec.TraceID()
		if tid == "" {
			if sc := eventlog.ScopeFromContext(ctx); sc != nil {
				tid = sc.TraceID
			}
		}
		if tid != "" {
			sid := obs.DeriveSpanID(fmt.Sprintf("%s/fill@%d", rec.RequestID(), rec.NowUS()))
			sp.SetSpanID(sid)
			obs.Inject(req.Header, obs.SpanContext{TraceID: tid, SpanID: sid, Sampled: true})
		}
		resp, err := client.Do(req)
		if err != nil {
			return core.Result{}, nil, false
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return core.Result{}, nil, false
		}
		var outcome error
		switch resp.Header.Get(fillOutcomeHeader) {
		case fillOK:
		case fillNoFunctions:
			outcome = core.ErrNoFunctions
		default:
			return core.Result{}, nil, false
		}
		payload, err := io.ReadAll(io.LimitReader(resp.Body, 8<<20))
		if err != nil {
			return core.Result{}, nil, false
		}
		res, err := store.DecodeResult(payload)
		if err != nil {
			return core.Result{}, nil, false
		}
		hit = true
		return res, outcome, true
	}
}
