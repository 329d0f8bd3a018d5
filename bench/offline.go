package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"sigrec/internal/abi"
	"sigrec/internal/core"
	"sigrec/internal/corpus"
	"sigrec/internal/evm"
	"sigrec/internal/keccak"
	"sigrec/internal/solc"
)

// fnWant is one declared function: the ground truth its recovery is
// checked against.
type fnWant struct {
	sel abi.Selector
	sig abi.Signature
	// checkable marks a declaration whose types the recovery must return
	// exactly. The corpus labels bodies that drop a type clue (Flaw), and
	// struct and nested-array parameters are the paper's known partial
	// case (Table 4: 61%); those are counted towards accuracy but not
	// checked.
	checkable bool
}

func newFnWant(sig abi.Signature, flaw string) fnWant {
	return fnWant{sel: sig.Selector(), sig: sig, checkable: flaw == "" && !hasStructOrNested(sig)}
}

// hasStructOrNested is the E9 selection: a struct parameter, or an array
// whose elements are dynamic.
func hasStructOrNested(sig abi.Signature) bool {
	for _, t := range sig.Inputs {
		if t.Kind == abi.KindTuple {
			return true
		}
		if (t.Kind == abi.KindSlice || t.Kind == abi.KindArray) && t.Elem.IsDynamic() {
			return true
		}
	}
	return false
}

// verify compares a recovery with the declared functions. wrong counts
// checkable functions missing or recovered with other types; exact counts
// functions of any kind recovered exactly. A recovery that ran out of
// budget says so, and its missing or truncated functions are not counted
// wrong: the step budget makes truncation a property of the input.
func verify(got core.Result, want []fnWant) (wrong, exact int) {
	for _, w := range want {
		var fn *core.RecoveredFunction
		for i := range got.Functions {
			if got.Functions[i].Selector == w.sel {
				fn = &got.Functions[i]
				break
			}
		}
		switch {
		case fn != nil && (abi.Signature{Inputs: fn.Inputs}).EqualTypes(w.sig):
			exact++
		case fn == nil && got.Truncated, fn != nil && fn.Truncated:
		case w.checkable:
			wrong++
		}
	}
	return wrong, exact
}

// contract is one bytecode with its declared functions.
type contract struct {
	code []byte
	fns  []fnWant
}

// corpusContracts is the E1/E3 evaluation corpus: 2,000 Solidity and 150
// Vyper single-function contracts.
func corpusContracts(seed int64) ([]contract, error) {
	c, err := corpus.Generate(corpus.DefaultConfig(seed))
	if err != nil {
		return nil, err
	}
	out := make([]contract, len(c.Entries))
	for i, e := range c.Entries {
		out[i] = contract{code: e.Code, fns: []fnWant{newFnWant(e.Sig, e.Flaw)}}
	}
	return out, nil
}

// synthContracts is the paper's dataset 2 drawn n times from consecutive
// seeds: 100 ten-function contracts each, arrays up to three dimensions.
func synthContracts(seed int64, n int) ([]contract, error) {
	var out []contract
	for k := 0; k < n; k++ {
		entries, err := corpus.GenerateSynthesized(seed + int64(k))
		if err != nil {
			return nil, err
		}
		// Entries list each contract's functions consecutively, sharing
		// its bytecode.
		for _, e := range entries {
			if len(out) == 0 || !bytes.Equal(out[len(out)-1].code, e.Code) {
				out = append(out, contract{code: e.Code})
			}
			last := &out[len(out)-1]
			last.fns = append(last.fns, newFnWant(e.Sig, e.Flaw))
		}
	}
	return out, nil
}

// recoverFunc recovers one contract on behalf of worker w.
type recoverFunc func(w int, code []byte) (core.Result, error)

// recoverDefault is the library entry point with the CLI's defaults:
// no deadline, default budgets, automatic per-selector fan-out.
func recoverDefault(_ int, code []byte) (core.Result, error) {
	return core.RecoverContext(context.Background(), code, core.Options{})
}

// loopStats is what a closed loop over whole passes of a contract set
// measured.
type loopStats struct {
	passes                       []time.Duration
	lat                          []time.Duration
	ops, failed, wrong, exact, n int64 // n counts declared functions
}

// rate is the median contracts per second over the passes.
func (s loopStats) rate(contracts int) float64 {
	rates := make([]float64, len(s.passes))
	for i, p := range s.passes {
		rates[i] = float64(contracts) / p.Seconds()
	}
	return median(rates)
}

// add appends o's passes and samples to s.
func (s *loopStats) add(o loopStats) {
	s.passes = append(s.passes, o.passes...)
	s.lat = append(s.lat, o.lat...)
	s.ops += o.ops
	s.failed += o.failed
	s.wrong += o.wrong
	s.exact += o.exact
	s.n += o.n
}

// accuracy is the share of declared functions recovered exactly.
func (s loopStats) accuracy() float64 { return ratio(float64(s.exact), float64(s.n)) }

// closedLoop recovers every contract once per pass: workers goroutines
// each take the next contract when their previous recovery returns. It
// runs whole passes for about d, and at least one.
func closedLoop(items []contract, workers int, d time.Duration, op recoverFunc) loopStats {
	var st loopStats
	var mu sync.Mutex
	deadline := time.Now().Add(d)
	for {
		var next atomic.Int64
		var wg sync.WaitGroup
		t0 := time.Now()
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				var local loopStats
				local.lat = make([]time.Duration, 0, len(items)/workers+1)
				for {
					i := int(next.Add(1)) - 1
					if i >= len(items) {
						break
					}
					c := &items[i]
					s := time.Now()
					got, err := op(w, c.code)
					local.lat = append(local.lat, time.Since(s))
					local.n += int64(len(c.fns))
					if err != nil {
						local.failed++
						continue
					}
					wrong, exact := verify(got, c.fns)
					local.wrong += int64(wrong)
					local.exact += int64(exact)
					if wrong > 0 {
						local.failed++
					}
				}
				mu.Lock()
				st.lat = append(st.lat, local.lat...)
				st.failed += local.failed
				st.wrong += local.wrong
				st.exact += local.exact
				st.n += local.n
				mu.Unlock()
			}()
		}
		wg.Wait()
		st.passes = append(st.passes, time.Since(t0))
		st.ops += int64(len(items))
		if !another(deadline, st.passes[len(st.passes)-1]) {
			return st
		}
	}
}

// runCorpusE3 measures the E1/E3 corpus under two closed-loop workers.
// Recoveries are short, so the dispatcher walk and the per-recovery fixed
// cost weigh most; per-selector fan-out never fires (one selector each).
func runCorpusE3(cfg runConfig, r *report) error {
	return runOffline(cfg, r, corpusContracts, 2, 0)
}

// synthDatasets is how many dataset-2 draws synth-latency recovers: 3,000
// ten-function contracts. Per-contract cost is heavy-tailed (3-D arrays),
// so fewer draws let the seed move the mean by more than the metrics'
// bounds.
const synthDatasets = 30

// runSynthLatency measures one closed-loop client on dataset 2 with the
// CLI's defaults, the single-contract latency an analyst sees. It is the
// one workload where automatic per-selector fan-out has an idle core.
func runSynthLatency(cfg runConfig, r *report) error {
	return runOffline(cfg, r, func(seed int64) ([]contract, error) { return synthContracts(seed, synthDatasets) }, 1, 100)
}

// runOffline measures a closed loop of workers over the contracts load
// generates. Set-up generates them and makes one warm-up pass over the
// first warmUp of them (0: all).
func runOffline(cfg runConfig, r *report, load func(int64) ([]contract, error), workers, warmUp int) error {
	var warm loopStats
	items, setupS, err := repeatSetup(func() ([]contract, error) {
		items, err := load(cfg.seed)
		if err != nil {
			return nil, err
		}
		if warmUp <= 0 || warmUp > len(items) {
			warmUp = len(items)
		}
		warm = closedLoop(items[:warmUp], workers, 0, recoverDefault)
		return items, nil
	}, func([]contract) {})
	if err != nil {
		return err
	}
	r.set("setup_s", setupS)

	measure := cfg.measure
	if cfg.traced {
		measure /= 2
	}
	runtime.GC()
	c0, u0 := readCounters(), readUsage()
	st := closedLoop(items, workers, measure, recoverDefault)
	u, d := readUsage().sub(u0), readCounters().sub(c0)

	r.attempted = warm.ops + st.ops
	r.failed = warm.failed + st.failed
	r.wrong = warm.wrong + st.wrong
	r.set("throughput_per_s", st.rate(len(items)))
	r.set("latency_p50_ms", median(durationsMS(st.lat)))
	r.setUsage(u, st.ops)
	r.setLatency(st.lat)
	r.setPipeline(d, st.ops)
	if !cfg.traced {
		r.setCheck(st.accuracy())
		return nil
	}

	// The traced half composes the pipeline from its public layer
	// functions and interleaves rounds of three closed loops, so drift
	// hits all three alike: RecoverContext, the composed pipeline
	// untraced, and the same pipeline traced. The traced layer times
	// summed per contract against RecoverContext's mean latency validate
	// the ledger; the traced against the untraced pipeline's throughput
	// is the tracing overhead.
	ts := tracers(workers)
	op := func(ts []*tracer) recoverFunc {
		return func(w int, code []byte) (core.Result, error) {
			t := ts[w]
			t.begin()
			defer t.finish()
			return pipeline(t, code)
		}
	}
	// Each round loops over its own sixteenth of the contracts, so a
	// segment overshoots its time by at most one short pass.
	const rounds = 4
	seg := cfg.measure / 2 / (3 * rounds)
	chunk := max(1, len(items)/16)
	var whole, plain, traced loopStats
	for i := 0; i < rounds; i++ {
		part := items[i*chunk : (i+1)*chunk]
		whole.add(closedLoop(part, workers, seg, recoverDefault))
		plain.add(closedLoop(part, workers, seg, op(make([]*tracer, workers))))
		traced.add(closedLoop(part, workers, seg, op(ts)))
	}
	for _, s := range []loopStats{whole, plain, traced} {
		r.attempted += s.ops
		r.failed += s.failed
		r.wrong += s.wrong
	}
	r.setCheck(st.accuracy())

	l := merged(ts...)
	r.setLayers(l, traced.ops)
	layerSum := l.total(spanDisasm) + l.total(spanDispatch) + l.total(spanExplore) + l.total(spanInfer)
	var untraced time.Duration
	for _, d := range whole.lat {
		untraced += d
	}
	r.set("core.layer_sum_ratio", ratio(float64(layerSum)/float64(traced.ops), float64(untraced)/float64(len(whole.lat))))
	r.set("trace.overhead_ratio", ratio(traced.rate(chunk), plain.rate(chunk)))

	e4 := newTracer(time.Now(), 1<<50)
	if err := e4Sweep(e4, r); err != nil {
		return err
	}
	return finishTrace(cfg, l, traced.ops, append(ts, e4)...)
}

// finishTrace ends every traced run: it prints ledger per operation and
// writes the spans of ts under cfg.spansDir.
func finishTrace(cfg runConfig, ledger layers, ops int64, ts ...*tracer) error {
	fmt.Fprintf(os.Stderr, "%s ledger over %d operations:\n", cfg.workload, ops)
	printLedger(os.Stderr, ledger, ops)
	path, err := writeSpans(cfg.spansDir, fmt.Sprintf("%s-s%d", cfg.workload, cfg.seed), ts...)
	if err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	fmt.Fprintln(os.Stderr, "spans written to", path)
	return nil
}

// errZeroKey guards the keccak call: comparing its result keeps the call
// from being optimized away.
var errZeroKey = errors.New("bench: zero keccak key")

// pipeline recovers code the way core.RecoverContext does with one
// selector worker, one public call per layer, each inside a span of the
// current request. The keccak span is the cache key every cached path
// computes.
func pipeline(t *tracer, code []byte) (core.Result, error) {
	root := t.start(spanContract)
	defer t.end(root)
	h := t.start(spanKeccak)
	key := keccak.Sum256(code)
	t.end(h)
	if key == [32]byte{} {
		return core.Result{}, errZeroKey
	}
	h = t.start(spanDisasm)
	prog := evm.Disassemble(code)
	t.endItems(h, int64(len(prog.Instructions)))
	h = t.start(spanDispatch)
	sels := core.ExtractSelectors(prog)
	t.endItems(h, int64(len(sels)))
	if len(sels) == 0 {
		return core.Result{}, core.ErrNoFunctions
	}
	res := core.Result{Functions: make([]core.RecoveredFunction, 0, len(sels))}
	for _, sel := range sels {
		h = t.start(spanExplore)
		tr := core.TraceFunction(prog, sel)
		t.end(h)
		h = t.start(spanInfer)
		inf := core.Infer(tr)
		t.end(h)
		res.Functions = append(res.Functions, core.RecoveredFunction{
			Selector:   abi.Selector(sel),
			Inputs:     inf.Types,
			ParamRules: inf.ParamRules,
			Language:   inf.Language,
			Truncated:  tr.Truncated,
		})
		res.Truncated = res.Truncated || tr.Truncated
	}
	return res, nil
}

// e4Sweep reruns the paper's Fig. 18 sweep: one external function taking
// a static array of dimension 1..20 (inner lengths 1, outer 2, as E4
// builds it). Each dimension runs the traced pipeline e4Reps times; the
// median explore time, and the median time of the other layers, are fit
// linearly against the dimension. The paper expects explore to grow
// linearly and the rest to stay flat.
func e4Sweep(t *tracer, r *report) error {
	const e4Reps = 51
	var dims, explore, other []float64
	for dim := 1; dim <= 20; dim++ {
		ty := abi.Uint(256)
		for d := 0; d < dim-1; d++ {
			ty = abi.ArrayOf(ty, 1)
		}
		sig := abi.Signature{Name: "sweep", Inputs: []abi.Type{abi.ArrayOf(ty, 2)}}
		code, err := solc.Compile(solc.Contract{Functions: []solc.Function{{Sig: sig, Mode: solc.External}}},
			solc.Config{Version: solc.DefaultVersion()})
		if err != nil {
			return fmt.Errorf("e4 dimension %d: %w", dim, err)
		}
		want := []fnWant{newFnWant(sig, "")}
		var ex, ot []float64
		for i := 0; i < e4Reps; i++ {
			t.begin()
			got, err := pipeline(t, code)
			ex = append(ex, t.current(spanExplore).Seconds()*1e6)
			ot = append(ot, (t.current(spanDisasm)+t.current(spanDispatch)+t.current(spanInfer)).Seconds()*1e6)
			t.finish()
			r.attempted++
			if err != nil {
				r.failed++
				continue
			}
			if wrong, _ := verify(got, want); wrong > 0 {
				r.wrong += int64(wrong)
				r.failed++
			}
		}
		dims = append(dims, float64(dim))
		explore = append(explore, median(ex))
		other = append(other, median(ot))
	}
	slope, r2 := linearFit(dims, explore)
	otherSlope, _ := linearFit(dims, other)
	r.set("e4.explore_slope_us", slope)
	r.set("e4.explore_r2", r2)
	r.set("e4.other_slope_us", otherSlope)
	return nil
}

// linearFit is the least-squares line through (xs, ys): its slope and the
// coefficient of determination.
func linearFit(xs, ys []float64) (slope, r2 float64) {
	n := float64(len(xs))
	var mx, my float64
	for i := range xs {
		mx += xs[i]
		my += ys[i]
	}
	mx, my = mx/n, my/n
	var sxy, sxx, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	slope = ratio(sxy, sxx)
	r2 = ratio(sxy*sxy, sxx*syy)
	return slope, r2
}
