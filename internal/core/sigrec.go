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
	"sigrec/internal/evm"
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
	// MaxPaths caps the number of explored paths per TASE exploration.
	// <= 0 selects the built-in default.
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
	// sequential path (1) and the fan-out path (> 1) on any machine.
	workers int
}

// selectorWorkers resolves the fan-out width for a contract with n
// selectors. Each selector is an independent TASE exploration over the
// immutable Program, so the engine runs min(GOMAXPROCS, n) of them at
// once, never fewer than one: a single selector or GOMAXPROCS=1 takes the
// sequential loop. Results, rule-fire counter deltas, span trees and
// wide events are identical either way — explorations are merged in
// selector order (TestParallelDifferential enforces it).
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
	sc := eventlog.ScopeFromContext(ctx)
	var requestID string
	if sc != nil {
		requestID = sc.RequestID
	}
	if opts.Cache != nil {
		if res, err, ok := opts.Cache.lookup(code); ok {
			rec := obs.FromContext(ctx)
			rec.SetStr("cache", "hit")
			mRecoveries.Inc()
			us := uint64(time.Since(start).Microseconds())
			mRecoverUS.ObserveExemplar(us, requestID)
			if opts.EventLog != nil {
				ev := &eventlog.Event{
					RequestID: requestID,
					DurUS:     int64(us),
					CodeBytes: len(code),
					Functions: len(res.Functions),
					Truncated: res.Truncated,
					Cache:     "hit",
				}
				if sc != nil {
					ev.QueueUS = sc.QueueUS
					ev.TraceID = sc.TraceID
				}
				if err != nil {
					ev.Error = err.Error()
				}
				if seq := opts.EventLog.Emit(ev); seq != 0 {
					rec.SetEventSeq(seq)
				}
			}
			return res, err
		}
	}
	var ev *eventlog.Event
	if opts.EventLog != nil {
		ev = &eventlog.Event{RequestID: requestID, CodeBytes: len(code)}
		if sc != nil {
			ev.QueueUS = sc.QueueUS
			ev.TraceID = sc.TraceID
		}
	}
	res, err := recoverUncached(ctx, code, opts, ev)
	if opts.Cache != nil && cacheable(res, err) {
		opts.Cache.store(code, res, err)
	}
	mRecoveries.Inc()
	if err != nil {
		mRecoverErrors.Inc()
	}
	if res.Truncated {
		mTruncated.Inc()
	}
	mFunctions.Add(uint64(len(res.Functions)))
	us := uint64(time.Since(start).Microseconds())
	mRecoverUS.ObserveExemplar(us, requestID)
	if ev != nil {
		ev.DurUS = int64(us)
		ev.Functions = len(res.Functions)
		ev.Truncated = res.Truncated
		if err != nil {
			ev.Error = err.Error()
		}
		for r := 1; r <= NumRules; r++ {
			if n := res.Rules[r]; n > 0 {
				if ev.RuleFires == nil {
					ev.RuleFires = make(map[string]uint64, 4)
				}
				ev.RuleFires[RuleID(r).String()] = n
			}
		}
		if seq := opts.EventLog.Emit(ev); seq != 0 {
			obs.FromContext(ctx).SetEventSeq(seq)
		}
	}
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
	program := evm.Disassemble(code)
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
	selectors, dispTrunc := extractSelectorsSpan(program, lim, ssp, ev)
	t2 := time.Now()
	if ssp != nil {
		ssp.SetInt("selectors", int64(len(selectors)))
		now = rec.NowUS()
		ssp.EndAt(now)
	}
	disasmD, dispatchD := t1.Sub(t0), t2.Sub(t1)
	var exploreD, inferD time.Duration
	recordPhases := func() {
		mDisasmUS.Observe(uint64(disasmD.Microseconds()))
		mDispatchUS.Observe(uint64(dispatchD.Microseconds()))
		mExploreUS.Observe(uint64(exploreD.Microseconds()))
		mInferUS.Observe(uint64(inferD.Microseconds()))
		if ev != nil {
			ev.DisasmUS = disasmD.Microseconds()
			ev.DispatchUS = dispatchD.Microseconds()
			ev.ExploreUS = exploreD.Microseconds()
			ev.InferUS = inferD.Microseconds()
			ev.Selectors = len(selectors)
		}
	}
	if len(selectors) == 0 {
		recordPhases()
		return Result{Truncated: dispTrunc}, ErrNoFunctions
	}
	res := Result{Truncated: dispTrunc}
	if workers := opts.selectorWorkers(len(selectors)); workers > 1 {
		recoverSelectorsParallel(&res, program, selectors, lim, workers, rec, ev, &exploreD, &inferD)
		recordPhases()
		return res, nil
	}
	for _, sel := range selectors {
		// Explore and infer are sibling spans per selector, tied together
		// by the selector attribute (one hex string shared by both).
		var selHex string
		if rec != nil {
			selHex = hexSelector(sel)
		}
		p0 := time.Now()
		esp := rec.SpanAt("explore", now)
		tr := traceFunctionSpan(program, sel, lim, esp, selHex, ev)
		p1 := time.Now()
		if esp != nil {
			now = rec.NowUS()
			esp.EndAt(now)
		}
		isp := rec.SpanAt("infer", now)
		d := inferRecycled(tr)
		p2 := time.Now()
		if isp != nil {
			isp.SetAttrs(
				obs.Attr{Key: "selector", Str: selHex},
				obs.Attr{Key: "params", Num: int64(len(d.Types))},
				obs.Attr{Key: "rule_hits", Num: int64(d.Stats.Total())},
			)
			now = rec.NowUS()
			isp.EndAt(now)
		}
		exploreD += p1.Sub(p0)
		inferD += p2.Sub(p1)
		res.Rules.Add(d.Stats)
		res.Functions = append(res.Functions, RecoveredFunction{
			Selector:   abi.Selector(sel),
			Inputs:     d.Types,
			ParamRules: d.ParamRules,
			Language:   d.Language,
			Truncated:  tr.Truncated,
		})
		res.Truncated = res.Truncated || tr.Truncated
	}
	recordPhases()
	return res, nil
}

// selOutcome carries one worker's explore+infer output to the merge loop,
// including the raw timestamps needed to build the explore/infer span pair
// post-hoc with real start/end times.
type selOutcome struct {
	t              *tase
	tr             Trace
	inf            Inferred
	exploreStartUS int64
	exploreEndUS   int64
	inferEndUS     int64
	exploreD       time.Duration
	inferD         time.Duration
}

// recoverSelectorsParallel fans explore+infer out over a bounded worker
// pool, then merges in selector order. Everything a worker touches is
// either goroutine-confined (the TASE engine, its interner, the inference
// pass over its own trace) or already concurrency-safe (telemetry atomics,
// the sync.Pools, obs.Recovery.NowUS). Everything that is order-sensitive
// — span construction, finishTASE's wide-event accumulation and its
// first-wins TruncCause, Functions append, RuleStats totals — happens in
// the merge loop, so the output is indistinguishable from the sequential
// path.
func recoverSelectorsParallel(res *Result, program *Program, selectors [][4]byte, lim limits, workers int, rec *obs.Recovery, ev *eventlog.Event, exploreD, inferD *time.Duration) {
	outs := make([]selOutcome, len(selectors))
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(selectors) {
					return
				}
				o := &outs[i]
				o.exploreStartUS = rec.NowUS()
				p0 := time.Now()
				o.tr, o.t = traceFunctionEngine(program, selectors[i], lim)
				p1 := time.Now()
				o.exploreEndUS = rec.NowUS()
				o.inf = inferRecycled(o.tr)
				p2 := time.Now()
				o.inferEndUS = rec.NowUS()
				o.exploreD = p1.Sub(p0)
				o.inferD = p2.Sub(p1)
			}
		}()
	}
	wg.Wait()
	for i := range outs {
		o := &outs[i]
		var selHex string
		if rec != nil {
			selHex = hexSelector(selectors[i])
			esp := rec.SpanAt("explore", o.exploreStartUS)
			annotateTASE(esp, o.t, selHex)
			esp.EndAt(o.exploreEndUS)
			isp := rec.SpanAt("infer", o.exploreEndUS)
			isp.SetAttrs(
				obs.Attr{Key: "selector", Str: selHex},
				obs.Attr{Key: "params", Num: int64(len(o.inf.Types))},
				obs.Attr{Key: "rule_hits", Num: int64(o.inf.Stats.Total())},
			)
			isp.EndAt(o.inferEndUS)
		}
		finishTASE(o.t, ev)
		*exploreD += o.exploreD
		*inferD += o.inferD
		res.Rules.Add(o.inf.Stats)
		res.Functions = append(res.Functions, RecoveredFunction{
			Selector:   abi.Selector(selectors[i]),
			Inputs:     o.inf.Types,
			ParamRules: o.inf.ParamRules,
			Language:   o.inf.Language,
			Truncated:  o.tr.Truncated,
		})
		res.Truncated = res.Truncated || o.tr.Truncated
	}
}

// inferRecycled is Infer over a trace the pipeline owns, followed by
// returning the trace's slab chunks to their pools. Inferred holds types
// and rule ids, never nodes, so once inference is done nothing reaches
// them; the engine counters that span annotation and finishTASE read
// later live outside the slabs. Traces handed to callers (TraceFunction)
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
	program := evm.Disassemble(code)
	tr := TraceFunction(program, selector)
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
