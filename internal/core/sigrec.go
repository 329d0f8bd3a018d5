package core

import (
	"context"
	"encoding/hex"
	"errors"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"sigrec/internal/abi"
	"sigrec/internal/eventlog"
	"sigrec/internal/obs"
)

// ErrNoFunctions reports bytecode with no recoverable dispatcher.
var ErrNoFunctions = errors.New("core: no public/external functions found")

// Options bounds and instruments one contract recovery. The zero value
// selects the built-in exploration budgets, no deadline, and no cache.
// How many selectors are explored in parallel is not an option: the
// engine always fans out up to min(GOMAXPROCS, selectors).
type Options struct {
	// StepBudget caps the symbolic steps of each TASE exploration (the
	// dispatcher walk and each per-function trace). <= 0 selects the
	// built-in default. When the budget runs out the exploration stops
	// forking at JUMPI fan-out points and the result is flagged Truncated.
	StepBudget int
	// MaxPaths caps the paths per TASE exploration, the first and one per
	// JUMPI fork. <= 0 selects the built-in default, 512 paths.
	MaxPaths int
	// Deadline is the per-contract wall-clock budget; all explorations for
	// the contract share it. <= 0 means no deadline. On expiry the
	// recovery returns promptly with whatever was collected, flagged
	// Truncated, rather than erroring.
	Deadline time.Duration
	// Cache, when non-nil, memoizes whole-contract recoveries keyed by
	// keccak256(code). Cached Results are shared; callers must not mutate
	// them.
	Cache *Cache
	// EventLog, when non-nil, receives one wide event per recovery —
	// including cache hits, which are marked Cache:"hit" — so the durable
	// log's totals line up 1:1 with the recovery counters on /metrics.
	// Emission is asynchronous and never blocks the recovery.
	EventLog *eventlog.Writer
	// workers overrides the per-selector fan-out width. Every caller
	// outside this package leaves it 0, which selects selectorWorkers'
	// automatic rule; the package's differential tests set it to pin the
	// inline width (1) and a goroutine width (> 1) on any machine. Both
	// run the same worker body and merge.
	workers int
}

// selectorWorkers resolves the fan-out width for a contract with n
// selectors. Each selector is an independent TASE exploration over the
// immutable Program, so the engine runs min(GOMAXPROCS, n) of them at
// once, never fewer than one: a single selector or GOMAXPROCS=1 runs the
// worker body inline on the caller's goroutine. Results, rule-fire
// counter deltas, span trees and wide events are identical at every width
// — one merge folds the outcomes in selector order
// (TestParallelDifferential enforces it).
func (o Options) selectorWorkers(n int) int {
	w := o.workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	return max(1, min(w, n))
}

// limits translates caller options into exploration bounds. The deadline
// and cancellation channel are computed once per contract so every
// exploration shares them.
func (o Options) limits(ctx context.Context) limits {
	lim := limits{maxSteps: o.StepBudget, maxPaths: o.MaxPaths}
	if o.Deadline > 0 {
		lim.deadline = time.Now().Add(o.Deadline)
	}
	if ctx != nil {
		if dl, ok := ctx.Deadline(); ok && (lim.deadline.IsZero() || dl.Before(lim.deadline)) {
			lim.deadline = dl
		}
		lim.done = ctx.Done()
	}
	return lim
}

// RecoveredFunction is one recovered function signature: the id plus the
// inferred parameter type list (names are not recoverable from bytecode).
type RecoveredFunction struct {
	// Selector is the 4-byte function id from the dispatcher.
	Selector abi.Selector
	// Inputs is the recovered parameter type list, in call-data order.
	Inputs []abi.Type
	// ParamRules explains each parameter: the inference rules applied, in
	// order (parallel to Inputs).
	ParamRules [][]RuleID
	// Language is the detected source compiler for this function.
	Language Language
	// Truncated reports that an exploration budget was hit (best-effort
	// result).
	Truncated bool
}

// TypeList formats the recovered parameter list canonically.
func (r RecoveredFunction) TypeList() string {
	sig := abi.Signature{Name: "f", Inputs: r.Inputs}
	return sig.TypeList()
}

// Result is the full recovery output for one contract.
type Result struct {
	Functions []RecoveredFunction
	// Rules aggregates rule usage over all functions (the paper's RQ4).
	Rules RuleStats
	// Truncated reports that some exploration budget or deadline was hit:
	// the function list or the recovered types may be incomplete.
	Truncated bool
}

// Recover runs SigRec on runtime bytecode: disassemble, extract function
// ids from the dispatcher, then run TASE per function and infer parameter
// types with rules R1-R31. It is RecoverContext under the default budgets.
func Recover(code []byte) (Result, error) {
	return RecoverContext(context.Background(), code, Options{})
}

// RecoverContext runs SigRec under caller-supplied resource bounds. A hit
// budget or an expired deadline/context yields a partial Result with
// Truncated set rather than an error, so batch callers always get
// whatever was recovered. Every call is metered into the pipeline
// telemetry (see Metrics).
func RecoverContext(ctx context.Context, code []byte, opts Options) (Result, error) {
	start := time.Now()
	// ev is the recovery's one record, filled whether the result is
	// computed or a cache hit and whether the event log is on or off;
	// reportRecovery derives the counters, histograms and wide event from
	// it.
	ev := eventlog.Event{CodeBytes: len(code)}
	if sc := eventlog.ScopeFromContext(ctx); sc != nil {
		ev.RequestID, ev.TraceID, ev.QueueUS = sc.RequestID, sc.TraceID, sc.QueueUS
	}
	var (
		res Result
		err error
		hit bool
	)
	if opts.Cache != nil {
		res, err, hit = opts.Cache.lookup(code)
	}
	if hit {
		ev.Cache = "hit"
		obs.FromContext(ctx).SetStr("cache", "hit")
	} else {
		res, err = recoverUncached(ctx, code, opts, &ev)
		if opts.Cache != nil && cacheable(res, err) {
			opts.Cache.store(code, res, err)
		}
	}
	ev.DurUS = time.Since(start).Microseconds()
	ev.Functions, ev.Truncated = len(res.Functions), res.Truncated
	if err != nil {
		ev.Error = err.Error()
	}
	reportRecovery(ctx, &ev, &res.Rules, opts.EventLog)
	return res, err
}

// hexSelector renders a selector as 0x-prefixed hex in one allocation
// (abi.Selector.Hex costs two); it runs once per traced selector.
func hexSelector(sel [4]byte) string {
	var b [10]byte
	b[0], b[1] = '0', 'x'
	hex.Encode(b[2:], sel[:])
	return string(b[:])
}

// recoverUncached computes one recovery, filling ev's phase timings,
// selector count and exploration counters.
func recoverUncached(ctx context.Context, code []byte, opts Options, ev *eventlog.Event) (Result, error) {
	if len(code) == 0 {
		return Result{}, errors.New("core: empty bytecode")
	}
	// rec is nil when the caller didn't arm tracing; every span call below
	// is nil-safe, so the untraced path pays one context lookup.
	rec := obs.FromContext(ctx)
	lim := opts.limits(ctx)

	// Phase boundaries are clocked unconditionally (a handful of monotonic
	// reads against ms-scale phases): the per-phase histograms and the
	// wide event need them whether or not tracing is armed.
	t0 := time.Now()

	// Each phase boundary shares one clock read (NowUS) between the ending
	// span and the starting one, halving the tracer's clock cost.
	dsp := rec.Span("disassemble")
	program := loadProgram(code)
	defer releaseProgram(program)
	t1 := time.Now()
	var now int64
	if dsp != nil {
		dsp.SetAttrs(
			obs.Attr{Key: "code_bytes", Num: int64(len(code))},
			obs.Attr{Key: "instructions", Num: int64(len(program.Instructions))},
		)
		now = rec.NowUS()
		dsp.EndAt(now)
	}

	ssp := rec.SpanAt("dispatch", now)
	t := newTASE(program, nil, lim) // selWord nil: the selector stays symbolic
	selectors := extractSelectors(&t)
	annotateTASE(ssp, &t.taseCounts, "")
	finishTASE(&t.taseCounts, ev)
	t2 := time.Now()
	if ssp != nil {
		ssp.SetInt("selectors", int64(len(selectors)))
		ssp.EndAt(rec.NowUS())
	}
	ev.DisasmUS, ev.DispatchUS = t1.Sub(t0).Microseconds(), t2.Sub(t1).Microseconds()
	ev.Selectors = len(selectors)
	res := Result{Truncated: t.trunc}
	if len(selectors) == 0 {
		return res, ErrNoFunctions
	}
	res.Functions = make([]RecoveredFunction, len(selectors))
	recoverSelectors(&res, program, selectors, lim, opts.selectorWorkers(len(selectors)), rec, ev)
	return res, nil
}

// programPool recycles disassembly buffers from one recovery to the next.
// recoverUncached and RecoverFunction use it: their Program reaches no
// trace, result or span that outlives the call, so the buffers can go back
// as they return.
var programPool = sync.Pool{New: func() any { return new(Program) }}

// loadProgram disassembles code into a pooled Program. Hand it back with
// releaseProgram once nothing that outlives the caller points into it.
func loadProgram(code []byte) *Program {
	p := programPool.Get().(*Program)
	p.Load(code)
	return p
}

// maxPooledProgramBytes caps the disassembly buffers the pool keeps. It
// holds every contract of the golden corpora (86 KiB at most, for 2.1 KB of
// code), while a real 24 KB contract (about 1 MiB of buffers, 96 KiB of it
// the pc index) is left to the collector instead of pinned in the pool.
const maxPooledProgramBytes = 128 << 10

// releaseProgram returns p to programPool unless its buffers are over
// maxPooledProgramBytes, and reports whether it did. It drops p's reference
// to the caller's bytecode.
func releaseProgram(p *Program) bool {
	if p.Bytes() > maxPooledProgramBytes {
		return false
	}
	p.Code = nil
	programPool.Put(p)
	return true
}

// selOutcome carries what the merge needs of one selector's explore+infer
// from the worker body: the exploration's counters, the inference's sizes
// for the infer span, and the raw timestamps needed to build the
// explore/infer span pair post-hoc with real start/end times. The
// recovered function and the rule totals go straight to the Result.
type selOutcome struct {
	counts           taseCounts
	params, ruleHits int
	exploreStartUS   int64
	exploreEndUS     int64
	inferEndUS       int64
	exploreD         time.Duration
	inferD           time.Duration
}

// exploreInfer is the per-selector worker body: explore, then infer over
// the trace and recycle its slabs, writing the recovered function to fn
// and adding its rule usage to rules. It touches only goroutine-confined
// state (the TASE engine, its interner, the inference pass over its own
// trace, fn and rules) or concurrency-safe state (telemetry atomics, the
// sync.Pools, obs.Recovery.NowUS).
func exploreInfer(program *Program, sel [4]byte, lim limits, rec *obs.Recovery, fn *RecoveredFunction, rules *RuleStats) (o selOutcome) {
	o.exploreStartUS = rec.NowUS()
	p0 := time.Now()
	tr, counts := traceFunctionEngine(program, sel, lim)
	p1 := time.Now()
	o.exploreEndUS = rec.NowUS()
	d := inferRecycled(tr)
	p2 := time.Now()
	o.inferEndUS = rec.NowUS()
	o.counts, o.exploreD, o.inferD = counts, p1.Sub(p0), p2.Sub(p1)
	o.params, o.ruleHits = len(d.Types), int(d.Stats.Total())
	*fn = RecoveredFunction{
		Selector:   abi.Selector(sel),
		Inputs:     d.Types,
		ParamRules: d.ParamRules,
		Language:   d.Language,
		Truncated:  counts.trunc,
	}
	rules.Add(d.Stats)
	return o
}

// recoverSelectors explores and infers every selector into res.Functions,
// one slot per selector, merging each outcome in selector order. With one
// worker the worker body runs inline on the caller's goroutine and each
// outcome is merged as it comes; with more, that many goroutines pull
// selectors off a shared counter, and the outcomes are merged once all are
// in. Everything order-sensitive (span construction, finishTASE's
// wide-event accumulation and its first-wins TruncCause) happens in the
// one merge, so the output is the same at every width
// (TestParallelDifferential enforces it); rule totals are sums, folded in
// any order.
func recoverSelectors(res *Result, program *Program, selectors [][4]byte, lim limits, workers int, rec *obs.Recovery, ev *eventlog.Event) {
	var exploreD, inferD time.Duration
	merge := func(i int, o *selOutcome) {
		var selHex string
		if rec != nil {
			selHex = hexSelector(selectors[i])
		}
		// Explore and infer are sibling spans per selector, tied together
		// by the selector attribute (one hex string shared by both).
		esp := rec.SpanAt("explore", o.exploreStartUS)
		annotateTASE(esp, &o.counts, selHex)
		esp.EndAt(o.exploreEndUS)
		if isp := rec.SpanAt("infer", o.exploreEndUS); isp != nil {
			isp.SetAttrs(
				obs.Attr{Key: "selector", Str: selHex},
				obs.Attr{Key: "params", Num: int64(o.params)},
				obs.Attr{Key: "rule_hits", Num: int64(o.ruleHits)},
			)
			isp.EndAt(o.inferEndUS)
		}
		finishTASE(&o.counts, ev)
		exploreD += o.exploreD
		inferD += o.inferD
		res.Truncated = res.Truncated || o.counts.trunc
	}
	if workers > 1 {
		// The goroutines reach no part of res but its Functions array, so
		// res itself can stay on the caller's stack.
		fns, outs := res.Functions, make([]selOutcome, len(selectors))
		var (
			next  atomic.Int64
			mu    sync.Mutex
			rules RuleStats // the workers' rule totals, guarded by mu
			wg    sync.WaitGroup
		)
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func() {
				defer wg.Done()
				var own RuleStats
				for i := int(next.Add(1)) - 1; i < len(selectors); i = int(next.Add(1)) - 1 {
					outs[i] = exploreInfer(program, selectors[i], lim, rec, &fns[i], &own)
				}
				mu.Lock()
				rules.Add(own)
				mu.Unlock()
			}()
		}
		wg.Wait()
		res.Rules.Add(rules)
		for i := range outs {
			merge(i, &outs[i])
		}
	} else {
		for i, sel := range selectors {
			o := exploreInfer(program, sel, lim, rec, &res.Functions[i], &res.Rules)
			merge(i, &o)
		}
	}
	ev.ExploreUS, ev.InferUS = exploreD.Microseconds(), inferD.Microseconds()
}

// inferRecycled is Infer over a trace the pipeline owns, followed by
// returning the trace's slab chunks to their pools. Inferred holds types
// and rule ids, never nodes, so once inference is done nothing reaches
// them; the engine counters that span annotation and finishTASE read
// later are a copy (taseCounts). Traces handed to callers (TraceFunction)
// never go through here.
func inferRecycled(tr Trace) Inferred {
	d := Infer(tr)
	tr.it.recycle()
	return d
}

// RecoverFunction runs TASE and inference for a single known selector
// under the default budgets. The recovery is metered into the recovery
// latency histogram.
func RecoverFunction(code []byte, selector abi.Selector) (RecoveredFunction, RuleStats) {
	start := time.Now()
	program := loadProgram(code)
	defer releaseProgram(program)
	tr, counts := traceFunctionEngine(program, selector, defaultLimits())
	meterTASE(&counts)
	d := inferRecycled(tr)
	mRecoverUS.ObserveDuration(time.Since(start))
	return RecoveredFunction{
		Selector:   selector,
		Inputs:     d.Types,
		ParamRules: d.ParamRules,
		Language:   d.Language,
		Truncated:  tr.Truncated,
	}, d.Stats
}

// Explain renders the per-parameter rule trails: "param 1 (uint8): R4 R11".
func (r RecoveredFunction) Explain() []string {
	out := make([]string, 0, len(r.Inputs))
	for i, t := range r.Inputs {
		line := "param " + strconv.Itoa(i+1) + " (" + t.Display() + "):"
		if i < len(r.ParamRules) {
			for _, rule := range r.ParamRules[i] {
				line += " " + rule.String()
			}
		}
		out = append(out, line)
	}
	return out
}
