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
	"testing"
	"time"

	"sigrec/internal/abi"
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

// benchE3Tracing runs the E3-shaped workload (recover a corpus of
// contracts end to end) through core.RecoverContext with and without a
// tracer armed. The pair is the tracing-overhead A/B that `make
// bench-gate` holds within 5% ns/op: Off exercises the nil-tracer fast
// path, On records a full span tree per recovery into a flight recorder.
func benchE3Tracing(b *testing.B, tracer *obs.Tracer) {
	c, err := corpus.Generate(corpus.Config{Seed: 7, Solidity: 32, Vyper: 0})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, e := range c.Entries {
			ctx, rec := tracer.StartRecovery(context.Background(), "bench")
			res, err := core.RecoverContext(ctx, e.Code, core.Options{})
			rec.Finish(res.Truncated, err)
			if err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkE3TracingOff(b *testing.B) { benchE3Tracing(b, nil) }
func BenchmarkE3TracingOn(b *testing.B)  { benchE3Tracing(b, obs.New(obs.Config{})) }

// benchE3OTLP is the OTLP-export A/B on the same E3-shaped workload. Both
// sides arm a tracer with a sink, so every finished recovery is offered
// for export: On hands it to the exporter, Off to a bare bounded channel
// of the same capacity. The timed section models the stalled-collector
// worst case — nothing drains either queue, so the sink's non-blocking
// send fills it and then drops — because that is the contract the gate
// defends: whatever the collector does, the recovery path pays one
// channel operation, nothing more. Batching, JSON encoding, and HTTP
// belong on the exporter's goroutine; any of that work leaking into
// Enqueue (say, a synchronous encode) trips the 10% allocs/op ratio
// immediately. The full encode-and-POST path still runs — against a live
// in-process collector — but after StopTimer, as the drain-everything
// flush that Close performs over the retained records.
func benchE3OTLP(b *testing.B, otlpOn bool) {
	c, err := corpus.Generate(corpus.Config{Seed: 7, Solidity: 32, Vyper: 0})
	if err != nil {
		b.Fatal(err)
	}
	// A small bounded queue keeps the retained live set constant (records
	// beyond it drop, as against a stalled collector). The Off side holds
	// the same number of records, so both sides mark equal live heaps on
	// every GC cycle and the pair compares the exporter's enqueue with a
	// bare channel send, not the collector's cost of a retained backlog
	// against a heap without one.
	const queueSize = 512
	var sink func(*obs.Record)
	var flush func()
	if otlpOn {
		col := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			_, _ = io.Copy(io.Discard, r.Body)
		}))
		defer col.Close()
		exp := otlp.New(otlp.Config{
			Endpoint:    col.URL,
			Interval:    time.Hour,
			QueueSize:   queueSize,
			ServiceName: "bench",
			Registry:    telemetry.NewRegistry(),
		})
		sink = exp.Sink()
		flush = func() {
			exp.Start()
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			if err := exp.Close(ctx); err != nil {
				b.Fatal(err)
			}
		}
	} else {
		held := make(chan *obs.Record, queueSize)
		sink = func(rec *obs.Record) {
			select {
			case held <- rec:
			default:
			}
		}
	}
	tracer := obs.New(obs.Config{Sink: sink})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, e := range c.Entries {
			ctx, rec := tracer.StartRecovery(context.Background(), "bench")
			res, err := core.RecoverContext(ctx, e.Code, core.Options{})
			rec.Finish(res.Truncated, err)
			if err != nil {
				b.Fatal(err)
			}
		}
	}
	b.StopTimer()
	if flush != nil {
		flush()
	}
}

func BenchmarkE3OTLPOff(b *testing.B) { benchE3OTLP(b, false) }
func BenchmarkE3OTLPOn(b *testing.B)  { benchE3OTLP(b, true) }

// benchE3Events is the event-log counterpart of benchE3Tracing: the same
// E3-shaped workload with and without a wide-event writer armed. `make
// bench-gate` holds On within 3% ns/op of Off — the per-recovery cost of
// building one Event and handing it to the async writer must stay in the
// noise (phase clocks run on both sides, so only the event allocation and
// channel send differ).
func benchE3Events(b *testing.B, log *eventlog.Writer) {
	c, err := corpus.Generate(corpus.Config{Seed: 7, Solidity: 32, Vyper: 0})
	if err != nil {
		b.Fatal(err)
	}
	opts := core.Options{EventLog: log}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, e := range c.Entries {
			ctx, _ := eventlog.NewContext(context.Background(), "bench")
			res, err := core.RecoverContext(ctx, e.Code, opts)
			if err != nil {
				b.Fatal(err)
			}
			_ = res
		}
	}
}

func BenchmarkE3EventsOff(b *testing.B) { benchE3Events(b, nil) }

func BenchmarkE3EventsOn(b *testing.B) {
	w, err := eventlog.New(eventlog.Config{Path: filepath.Join(b.TempDir(), "events.ndjson")})
	if err != nil {
		b.Fatal(err)
	}
	defer w.Close()
	benchE3Events(b, w)
}

// BenchmarkTieredCacheWarmLookup measures the disk tier of the warm-start
// path: a store populated with recovery results is consulted through a
// TieredCache whose memory LRU is kept too small to absorb the key set,
// so nearly every lookup is a disk hit (index probe + pread + decode) —
// the post-restart steady state. `make bench-gate` holds this under
// 50µs/op.
func BenchmarkTieredCacheWarmLookup(b *testing.B) {
	c, err := corpus.Generate(corpus.Config{Seed: 11, Solidity: 64, Vyper: 0})
	if err != nil {
		b.Fatal(err)
	}
	disk, err := store.Open(b.TempDir(), store.Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer disk.Close()
	warm := core.NewTieredCache(len(c.Entries)*2, disk)
	codes := make([][]byte, len(c.Entries))
	for i, e := range c.Entries {
		codes[i] = e.Code
		if _, err := warm.GetOrCompute(e.Code, func() (core.Result, error) {
			return core.RecoverContext(context.Background(), e.Code, core.Options{})
		}); err != nil {
			b.Fatal(err)
		}
	}
	// Restart: fresh memory tier, bounded to a single entry so successive
	// lookups cannot be served from the LRU.
	restarted := core.NewTieredCache(1, disk)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		code := codes[i%len(codes)]
		if _, err := restarted.GetOrCompute(code, func() (core.Result, error) {
			b.Fatal("warm lookup fell through to compute")
			return core.Result{}, nil
		}); err != nil {
			b.Fatal(err)
		}
	}
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
