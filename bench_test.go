// Benchmarks regenerating every table and figure of the paper's evaluation
// (one bench per experiment, E1-E13), plus microbenchmarks of the recovery
// pipeline itself. Run with:
//
//	go test -bench=. -benchmem
package sigrec

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"sigrec/internal/abi"
	"sigrec/internal/benchgate"
	"sigrec/internal/core"
	"sigrec/internal/corpus"
	"sigrec/internal/eventlog"
	"sigrec/internal/evm"
	"sigrec/internal/experiments"
	"sigrec/internal/obfuscate"
	"sigrec/internal/obs"
	"sigrec/internal/otlp"
	"sigrec/internal/solc"
	"sigrec/internal/store"
	"sigrec/internal/telemetry"
)

// benchParams keeps bench iterations affordable while preserving every
// experiment's shape; cmd/experiments runs the full scale.
var benchParams = experiments.Params{Seed: 42, Scale: 0.05}

func benchExperiment(b *testing.B, id string) {
	r, ok := experiments.ByID(id)
	if !ok {
		b.Fatalf("unknown experiment %s", id)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tb, err := r.Run(benchParams)
		if err != nil {
			b.Fatal(err)
		}
		if len(tb.Rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

// One benchmark per paper table/figure.

func BenchmarkE1Accuracy(b *testing.B)         { benchExperiment(b, "e1") }  // §5.2 RQ1
func BenchmarkE2CompilerVersions(b *testing.B) { benchExperiment(b, "e2") }  // Fig. 15/16
func BenchmarkE3TimeDistribution(b *testing.B) { benchExperiment(b, "e3") }  // Fig. 17
func BenchmarkE4DimensionSweep(b *testing.B)   { benchExperiment(b, "e4") }  // Fig. 18
func BenchmarkE5RuleUsage(b *testing.B)        { benchExperiment(b, "e5") }  // Fig. 19
func BenchmarkE6Dataset1(b *testing.B)         { benchExperiment(b, "e6") }  // Table 1
func BenchmarkE7Dataset2(b *testing.B)         { benchExperiment(b, "e7") }  // Table 2
func BenchmarkE8Dataset3(b *testing.B)         { benchExperiment(b, "e8") }  // Table 3
func BenchmarkE9StructNested(b *testing.B)     { benchExperiment(b, "e9") }  // Table 4
func BenchmarkE10Vyper(b *testing.B)           { benchExperiment(b, "e10") } // Table 5
func BenchmarkE11ParChecker(b *testing.B)      { benchExperiment(b, "e11") } // §6.1/Table 6
func BenchmarkE12Fuzzing(b *testing.B)         { benchExperiment(b, "e12") } // §6.2
func BenchmarkE13Erays(b *testing.B)           { benchExperiment(b, "e13") } // §6.3
func BenchmarkE14Obfuscation(b *testing.B)     { benchExperiment(b, "e14") } // §7 ablation

// Microbenchmarks of the pipeline.

func benchRecover(b *testing.B, sigStr string, mode solc.Mode) {
	sig, err := abi.ParseSignature(sigStr)
	if err != nil {
		b.Fatal(err)
	}
	code, err := solc.Compile(solc.Contract{Functions: []solc.Function{{Sig: sig, Mode: mode}}},
		solc.Config{Version: solc.DefaultVersion()})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec, _ := core.RecoverFunction(code, sig.Selector())
		if len(rec.Inputs) == 0 {
			b.Fatal("recovery failed")
		}
	}
}

func BenchmarkRecoverBasic(b *testing.B) {
	benchRecover(b, "transfer(address,uint256)", solc.External)
}

func BenchmarkRecoverDynamicArray(b *testing.B) {
	benchRecover(b, "batch(uint256[],address)", solc.External)
}

func BenchmarkRecoverNestedArray(b *testing.B) {
	benchRecover(b, "deep(uint8[][])", solc.External)
}

func BenchmarkRecoverPublicCopy(b *testing.B) {
	benchRecover(b, "rows(uint256[3][2],bytes)", solc.Public)
}

func BenchmarkBatchRecovery(b *testing.B) {
	c, err := corpus.Generate(corpus.Config{Seed: 9, Solidity: 64, Vyper: 0})
	if err != nil {
		b.Fatal(err)
	}
	codes := make([][]byte, len(c.Entries))
	for i, e := range c.Entries {
		codes[i] = e.Code
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		items := core.RecoverAll(codes, 0)
		if len(items) != len(codes) {
			b.Fatal("batch incomplete")
		}
	}
}

// BenchmarkBatchRecoveryCached is BenchmarkBatchRecovery over a corpus
// where every contract appears multiple times, batched through a shared
// result cache — the fleet-scan shape (deployed bytecode is massively
// duplicated on-chain, so the cache absorbs most of the TASE work).
func BenchmarkBatchRecoveryCached(b *testing.B) {
	c, err := corpus.Generate(corpus.Config{Seed: 9, Solidity: 16, Vyper: 0})
	if err != nil {
		b.Fatal(err)
	}
	var codes [][]byte
	for rep := 0; rep < 8; rep++ {
		for _, e := range c.Entries {
			codes = append(codes, e.Code)
		}
	}
	cache := core.NewCache(256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		items := core.RecoverAllContext(context.Background(), codes, 0, core.Options{Cache: cache})
		if len(items) != len(codes) {
			b.Fatal("batch incomplete")
		}
	}
}

// Performance gates of the observability layers and the warm-start path
// (`make bench-gate`). Allocation counts are deterministic, so the
// allocation gates are plain tests; the wall-time gates are
// BenchmarkGate* functions judged on the median of alternating rounds
// (internal/benchgate). A recovery takes a few milliseconds, so a tight
// wall-time budget would sit within shared-runner scatter: each A/B holds
// a fixed ceiling on the allocations its layer adds per recovery, which
// moves the moment a structural regression (a new per-span or per-event
// allocation) lands, and On within 25% of Off on time as a gross-slowdown
// backstop.

// e3Contracts is how many contracts one E3-shaped operation recovers.
const e3Contracts = 32

// e3Traced returns one operation of the E3-shaped workload: recover a
// 32-contract corpus end to end through core.RecoverContext, each
// recovery under tracer. A nil tracer exercises the untraced fast path.
func e3Traced(tb testing.TB, tracer *obs.Tracer) func() {
	c, err := corpus.Generate(corpus.Config{Seed: 7, Solidity: e3Contracts, Vyper: 0})
	if err != nil {
		tb.Fatal(err)
	}
	return func() {
		for _, e := range c.Entries {
			ctx, rec := tracer.StartRecovery(context.Background(), "bench")
			res, err := core.RecoverContext(ctx, e.Code, core.Options{})
			rec.Finish(res.Truncated, err)
			if err != nil {
				tb.Fatal(err)
			}
		}
	}
}

// e3OTLPTracer arms the tracer of the OTLP-export A/B. Both sides offer
// every finished recovery to a sink: on hands it to the exporter, off to
// a bare bounded channel of the same capacity. Nothing drains either
// queue while the workload runs — the stalled-collector worst case, where
// the sink's non-blocking send fills the queue and then drops — because
// that is the contract the gate defends: whatever the collector does, the
// recovery path pays one channel operation, nothing more. Batching, JSON
// encoding and HTTP belong on the exporter's goroutine; any of that work
// leaking into Enqueue (say, a synchronous encode) trips the allocation
// gate immediately. The full encode-and-POST path still runs, against a
// live in-process collector, at cleanup: the drain-everything flush that
// Close performs over the retained records.
func e3OTLPTracer(tb testing.TB, on bool) *obs.Tracer {
	// A small bounded queue keeps the retained live set constant (records
	// beyond it drop, as against a stalled collector). The off side holds
	// the same number of records, so both sides mark equal live heaps on
	// every GC cycle and the pair compares the exporter's enqueue with a
	// bare channel send, not the collector's cost of a retained backlog
	// against a heap without one.
	const queueSize = 512
	if !on {
		held := make(chan *obs.Record, queueSize)
		return obs.New(obs.Config{Sink: func(rec *obs.Record) {
			select {
			case held <- rec:
			default:
			}
		}})
	}
	col := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.Copy(io.Discard, r.Body)
	}))
	tb.Cleanup(col.Close)
	exp := otlp.New(otlp.Config{
		Endpoint:    col.URL,
		Interval:    time.Hour,
		QueueSize:   queueSize,
		ServiceName: "bench",
		Registry:    telemetry.NewRegistry(),
	})
	tb.Cleanup(func() {
		exp.Start()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := exp.Close(ctx); err != nil {
			tb.Error(err)
		}
	})
	return obs.New(obs.Config{Sink: exp.Sink()})
}

// e3Events is the event-log counterpart of e3Traced: the same E3-shaped
// operation with the wide-event writer w armed, or none when w is nil.
// Phase clocks run either way, so only building one Event per recovery
// and handing it to the async writer differ.
func e3Events(tb testing.TB, w *eventlog.Writer) func() {
	c, err := corpus.Generate(corpus.Config{Seed: 7, Solidity: e3Contracts, Vyper: 0})
	if err != nil {
		tb.Fatal(err)
	}
	opts := core.Options{EventLog: w}
	return func() {
		for _, e := range c.Entries {
			ctx, _ := eventlog.NewContext(context.Background(), "bench")
			if _, err := core.RecoverContext(ctx, e.Code, opts); err != nil {
				tb.Fatal(err)
			}
		}
	}
}

// e3EventLog opens a wide-event writer in a temporary directory, closed
// at cleanup.
func e3EventLog(tb testing.TB) *eventlog.Writer {
	w, err := eventlog.New(eventlog.Config{Path: filepath.Join(tb.TempDir(), "events.ndjson")})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { w.Close() })
	return w
}

// e3AllocRuns is how many operations the allocation gates average over;
// the counts repeat to within a few allocations, so a handful suffice.
const e3AllocRuns = 4

// TestAllocsE3TimeDistribution holds the E3 experiment (Fig. 17) under a
// fixed ceiling: 10% over the 3,392 allocs per run it was recorded at
// (5,874 before inference took its scratch from a pool, against 6,066 at
// the gate's previous setting; 7,141 before forks copied into pooled
// state buffers, 7,718 before guard lists became persistent chains,
// 11,331 before inference keyed on node identity).
func TestAllocsE3TimeDistribution(t *testing.T) {
	const ceiling = 3730
	r, ok := experiments.ByID("e3")
	if !ok {
		t.Fatal("unknown experiment e3")
	}
	got := testing.AllocsPerRun(e3AllocRuns, func() {
		if _, err := r.Run(benchParams); err != nil {
			t.Fatal(err)
		}
	})
	if got > ceiling {
		t.Errorf("E3 makes %.0f allocs per run, above the %d ceiling", got, ceiling)
	}
}

// TestAllocsRecoverCorpus holds a whole RecoverContext, dispatcher walk
// included, under a fixed ceiling over the E1 corpus (seed 1, 2,150
// one-function contracts): 10% over the 4.9 allocs per contract it was
// recorded at (27.3 before inference took its scratch from a pool and
// the engines stayed on the stack, 29.4 with a fork list per path beside
// the worklist, 39.9 before forks copied into pooled state buffers,
// 46.7 before guard lists became persistent chains, 78.6 before inference
// keyed on node identity). The E3 gate above counts
// RecoverFunction alone, so only this gate sees a walk that re-enters
// function bodies.
func TestAllocsRecoverCorpus(t *testing.T) {
	const ceiling = 5.4
	c, err := corpus.Generate(corpus.DefaultConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	got := testing.AllocsPerRun(2, func() {
		for _, e := range c.Entries {
			if _, err := core.RecoverContext(context.Background(), e.Code, core.Options{}); err != nil {
				t.Fatal(err)
			}
		}
	}) / float64(len(c.Entries))
	if got > ceiling {
		t.Errorf("RecoverContext makes %.2f allocs per contract over E1, above the %.1f ceiling", got, ceiling)
	}
}

// TestAllocBytesRecoverCorpus holds the bytes a whole RecoverContext
// allocates over the E1 corpus (seed 1, 2,150 one-function contracts)
// under a fixed ceiling: 10% over the 347 B per contract it was recorded
// at (2,283 B before inference took its scratch from a pool and the
// engines stayed on the stack, against 2,305 B at the gate's previous
// setting; 3,513 B before forks copied into pooled state buffers,
// 4,360 B before guard lists became persistent chains,
// 31,511 B before the engine recycled its per-recovery memory, 9,500 B
// before inference keyed on node identity and the node table was
// pooled). Allocation counts miss most of what recycling saves
// (an interner, an event buffer or a disassembly is one allocation of
// kilobytes), so the bytes have their own gate.
func TestAllocBytesRecoverCorpus(t *testing.T) {
	c, err := corpus.Generate(corpus.DefaultConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	codes := make([][]byte, len(c.Entries))
	for i, e := range c.Entries {
		codes[i] = e.Code
	}
	checkRecoverBytes(t, "E1", codes, 382)
}

// TestAllocBytesRecoverDataset2 is TestAllocBytesRecoverCorpus over
// dataset 2 (seed 1, 100 ten-function contracts with arrays up to 3-D),
// where the node table and inference's per-node state weigh most: 10%
// over the 5,081 B per contract it was recorded at (44,110 B before
// inference took its scratch from a pool, against 44,560 B at the gate's
// previous setting; 64,531 B before forks
// copied into pooled state buffers, 123,800 B before guard lists became
// persistent chains, 233,700 B before inference keyed on node identity
// and the node table was pooled).
func TestAllocBytesRecoverDataset2(t *testing.T) {
	synth, err := corpus.GenerateSynthesized(1)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[string]bool)
	var codes [][]byte
	for _, e := range synth {
		if !seen[string(e.Code)] {
			seen[string(e.Code)] = true
			codes = append(codes, e.Code)
		}
	}
	checkRecoverBytes(t, "dataset 2", codes, 5590)
}

// TestAllocBytesRecoverDeepNested is TestAllocBytesRecoverCorpus over the
// dimension-20 contract of the Fig. 18 sweep (uint256[1]...[1][2], 20
// dimensions), whose 20 nested loop guards every path carries: 10% over
// the 1,736 B per recovery it was recorded at (4,864 B before inference
// took its scratch from a pool and built an array type's levels in one
// allocation, against 4,880 B at the gate's previous setting; 5,824 B
// before forks copied into pooled state buffers,
// 18,986 B before guard lists became persistent chains and every fork
// copied them).
func TestAllocBytesRecoverDeepNested(t *testing.T) {
	ty := abi.Uint(256)
	for d := 0; d < 19; d++ {
		ty = abi.ArrayOf(ty, 1)
	}
	sig := abi.Signature{Name: "sweep", Inputs: []abi.Type{abi.ArrayOf(ty, 2)}}
	code, err := solc.Compile(solc.Contract{Functions: []solc.Function{
		{Sig: sig, Mode: solc.External},
	}}, solc.Config{Version: solc.DefaultVersion()})
	if err != nil {
		t.Fatal(err)
	}
	checkRecoverBytes(t, "the Fig. 18 dimension-20 contract", [][]byte{code}, 1910)
}

// checkRecoverBytes fails t when RecoverContext allocates more than
// ceiling bytes per contract over codes.
func checkRecoverBytes(t *testing.T, corpusName string, codes [][]byte, ceiling float64) {
	t.Helper()
	got := bytesPerRun(2, func() {
		for _, code := range codes {
			if _, err := core.RecoverContext(context.Background(), code, core.Options{}); err != nil {
				t.Fatal(err)
			}
		}
	}) / float64(len(codes))
	if got > ceiling {
		t.Errorf("RecoverContext allocates %.0f B per contract over %s, above the %.0f ceiling", got, corpusName, ceiling)
	}
}

// bytesPerRun is testing.AllocsPerRun for bytes: the mean heap bytes
// allocated by one call of f, after one warm-up call, at GOMAXPROCS 1.
func bytesPerRun(runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// The observability A/Bs hold what each layer adds to one recovery under
// a fixed ceiling, 10% over the allocations per recovery it was recorded
// at, or 1.0 where that is about zero. A ratio against the bare side
// would tighten as the engine underneath gets leaner, while a layer's
// cost per recovery stays.

// TestAllocsE3Tracing: tracing was recorded at 11.0 allocations per
// recovery.
func TestAllocsE3Tracing(t *testing.T) {
	checkAddedAllocs(t, "tracing", 12.1, e3Traced(t, nil), e3Traced(t, obs.New(obs.Config{})))
}

// TestAllocsE3Events: the event log was recorded at 4.47 allocations per
// recovery. Each measured operation ends with the writer's Sync, so the
// writer goroutine's encoding of the operation's events always lands
// inside the measured window.
func TestAllocsE3Events(t *testing.T) {
	w := e3EventLog(t)
	events := e3Events(t, w)
	checkAddedAllocs(t, "the event log", 4.9, e3Events(t, nil), func() {
		events()
		if err := w.Sync(); err != nil {
			t.Fatal(err)
		}
	})
}

// TestAllocsE3OTLP: the OTLP exporter's enqueue was recorded at 0.0
// allocations per recovery.
func TestAllocsE3OTLP(t *testing.T) {
	checkAddedAllocs(t, "OTLP export", 1.0,
		e3Traced(t, e3OTLPTracer(t, false)), e3Traced(t, e3OTLPTracer(t, true)))
}

// checkAddedAllocs fails t when on allocates more than ceiling per
// recovery over off, each an E3-shaped operation of e3Contracts
// recoveries.
func checkAddedAllocs(t *testing.T, layer string, ceiling float64, off, on func()) {
	t.Helper()
	offAllocs := testing.AllocsPerRun(e3AllocRuns, off)
	onAllocs := testing.AllocsPerRun(e3AllocRuns, on)
	if per := (onAllocs - offAllocs) / e3Contracts; per > ceiling {
		t.Errorf("%s adds %.2f allocs per recovery (%.0f with, %.0f without per run), above the %.1f ceiling",
			layer, per, onAllocs, offAllocs, ceiling)
	}
}

// e3GateOps is how many E3 operations (about 4ms each) each side of an
// E3 wall-time gate runs per round.
const e3GateOps = 25

func BenchmarkGateE3Tracing(b *testing.B) {
	benchgate.Pair(b, e3GateOps, 0.25, e3Traced(b, nil), e3Traced(b, obs.New(obs.Config{})))
}

func BenchmarkGateE3Events(b *testing.B) {
	benchgate.Pair(b, e3GateOps, 0.25, e3Events(b, nil), e3Events(b, e3EventLog(b)))
}

func BenchmarkGateE3OTLP(b *testing.B) {
	benchgate.Pair(b, e3GateOps, 0.25,
		e3Traced(b, e3OTLPTracer(b, false)), e3Traced(b, e3OTLPTracer(b, true)))
}

// tieredWarmLookup returns one lookup of the disk tier of the warm-start
// path: a store populated with recovery results is consulted through a
// TieredCache whose memory LRU is kept too small to absorb the key set,
// so nearly every lookup is a disk hit (index probe + pread + decode) —
// the post-restart steady state.
func tieredWarmLookup(tb testing.TB) func() {
	c, err := corpus.Generate(corpus.Config{Seed: 11, Solidity: 64, Vyper: 0})
	if err != nil {
		tb.Fatal(err)
	}
	disk, err := store.Open(tb.TempDir(), store.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { disk.Close() })
	warm := core.NewTieredCache(len(c.Entries)*2, disk)
	codes := make([][]byte, len(c.Entries))
	for i, e := range c.Entries {
		codes[i] = e.Code
		if _, err := warm.GetOrCompute(e.Code, func() (core.Result, error) {
			return core.RecoverContext(context.Background(), e.Code, core.Options{})
		}); err != nil {
			tb.Fatal(err)
		}
	}
	// Restart: fresh memory tier, bounded to a single entry so successive
	// lookups cannot be served from the LRU.
	restarted := core.NewTieredCache(1, disk)
	i := 0
	return func() {
		code := codes[i%len(codes)]
		i++
		if _, err := restarted.GetOrCompute(code, func() (core.Result, error) {
			tb.Fatal("warm lookup fell through to compute")
			return core.Result{}, nil
		}); err != nil {
			tb.Fatal(err)
		}
	}
}

func BenchmarkTieredCacheWarmLookup(b *testing.B) {
	lookup := tieredWarmLookup(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lookup()
	}
}

// BenchmarkGateTieredCacheWarmLookup holds a warm disk hit under 50µs:
// the whole point of the store is that it costs microseconds, not a
// recovery.
func BenchmarkGateTieredCacheWarmLookup(b *testing.B) {
	benchgate.Ceiling(b, 2000, 50*time.Microsecond, tieredWarmLookup(b))
}

// BenchmarkRecoverBounded measures the overhead of running a recovery
// with an (unreached) deadline and step budget armed — the bounds checks
// themselves, which must stay in the noise.
func BenchmarkRecoverBounded(b *testing.B) {
	sig, _ := abi.ParseSignature("transfer(address,uint256)")
	code, err := solc.Compile(solc.Contract{Functions: []solc.Function{{Sig: sig, Mode: solc.External}}},
		solc.Config{Version: solc.DefaultVersion()})
	if err != nil {
		b.Fatal(err)
	}
	opts := core.Options{Deadline: time.Minute, StepBudget: 1 << 30}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := core.RecoverContext(context.Background(), code, opts)
		if err != nil || len(res.Functions) == 0 {
			b.Fatal("recovery failed")
		}
	}
}

func BenchmarkObfuscateAndRecover(b *testing.B) {
	sig, _ := abi.ParseSignature("f(uint8,uint32,address)")
	code, err := solc.Compile(solc.Contract{Functions: []solc.Function{{Sig: sig, Mode: solc.External}}},
		solc.Config{Version: solc.DefaultVersion()})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		obf, err := obfuscate.Obfuscate(code, obfuscate.LevelShiftMask, 1)
		if err != nil {
			b.Fatal(err)
		}
		rec, _ := core.RecoverFunction(obf, sig.Selector())
		if len(rec.Inputs) != 3 {
			b.Fatal("recovery degraded")
		}
	}
}

func BenchmarkWorldCall(b *testing.B) {
	sig, _ := abi.ParseSignature("transfer(address,uint256)")
	code, err := solc.Compile(solc.Contract{Functions: []solc.Function{{Sig: sig, Mode: solc.External}}},
		solc.Config{Version: solc.DefaultVersion()})
	if err != nil {
		b.Fatal(err)
	}
	w := evm.NewWorld()
	target := evm.WordFromUint64(0x1001)
	w.Deploy(target, code)
	data, _ := abi.EncodeCall(sig, []abi.Value{evm.WordFromUint64(1), evm.WordFromUint64(2)})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := w.Call(evm.WordFromUint64(0xCAFE), target, data, evm.ZeroWord, 0)
		if err != nil || res.Reverted {
			b.Fatal("call failed")
		}
	}
}

func BenchmarkCorpusGeneration(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c, err := corpus.Generate(corpus.Config{Seed: int64(i), Solidity: 50, Vyper: 10})
		if err != nil {
			b.Fatal(err)
		}
		if len(c.Entries) == 0 {
			b.Fatal("empty corpus")
		}
	}
}
