package core

import (
	"context"

	"sigrec/internal/eventlog"
	"sigrec/internal/obs"
	"sigrec/internal/telemetry"
)

// tel is the pipeline-wide metrics registry. Every recovery entry point
// (Recover, RecoverContext, RecoverFunction, RecoverAll) reports into it;
// Metrics exposes it to the facade and CLI.
var tel = telemetry.NewRegistry()

func init() {
	// Every exposition of the pipeline registry (CLI -stats, sigrecd
	// /metrics) carries the binary's identity, and runtime self-metrics
	// (goroutines, heap, GC-pause/sched-latency p99) refreshed per scrape.
	obs.RegisterBuildInfo(tel)
	obs.RegisterRuntimeMetrics(tel)
	tel.SetHelp("sigrec_rule_fired_total", "Inference-rule applications by rule (R1-R31, the paper's Fig. 19 live)")
	tel.SetHelp("sigrec_truncations_total", "Budget-truncated recoveries by the cause of their first truncated exploration")
	tel.SetHelp("sigrec_build_info", "Build identity; constant 1")
	tel.SetHelp("sigrec_recover_duration_microseconds", "Whole-contract recovery latency; the Fig. 17 buckets end at le 1000, 10000, 100000")
	tel.SetHelp("sigrec_phase_disasm_microseconds", "Disassembly phase latency per recovery")
	tel.SetHelp("sigrec_phase_dispatch_microseconds", "Dispatcher selector-extraction latency per recovery")
	tel.SetHelp("sigrec_phase_explore_microseconds", "TASE exploration latency per recovery, summed over selectors")
	tel.SetHelp("sigrec_phase_infer_microseconds", "Type-inference latency per recovery, summed over selectors")
	tel.SetHelp("sigrec_state_clone_bytes_total", "Bytes of stack, memory and JUMPI visit counters copied into forked TASE states")
}

// Pre-resolved instruments so the hot path never touches the registry map.
var (
	mRecoveries     = tel.Counter("sigrec_recoveries_total")
	mRecoverErrors  = tel.Counter("sigrec_recover_errors_total")
	mTruncated      = tel.Counter("sigrec_recoveries_truncated_total")
	mFunctions      = tel.Counter("sigrec_functions_recovered_total")
	mPathsExplored  = tel.Counter("sigrec_tase_paths_explored_total")
	mPathsPruned    = tel.Counter("sigrec_tase_paths_pruned_total")
	mTASESteps      = tel.Counter("sigrec_tase_steps_total")
	mEvents         = tel.Counter("sigrec_tase_events_collected_total")
	mCacheHits      = tel.Counter("sigrec_cache_hits_total")
	mCacheMisses    = tel.Counter("sigrec_cache_misses_total")
	mCacheCoalesced = tel.Counter("sigrec_cache_coalesced_total")
	mCacheEvicted   = tel.Counter("sigrec_cache_evictions_total")
	mCacheEntries   = tel.Gauge("sigrec_cache_entries")
	// Peer cache-fill (cluster mode): a fill hit is a result copied from
	// the owning shard instead of recomputed; a fill miss fell through to
	// local compute.
	mCacheFillHits   = tel.Counter("sigrec_cache_fill_hits_total")
	mCacheFillMisses = tel.Counter("sigrec_cache_fill_misses_total")
	// Disk-tier (persistent result store) instruments: a store hit is a
	// result served from disk instead of recomputed (also metered as a
	// cache hit); write errors are surfaced here because Save failures
	// never fail the recovery.
	mStoreHits        = tel.Counter("sigrec_store_hits_total")
	mStoreMisses      = tel.Counter("sigrec_store_misses_total")
	mStoreWriteErrors = tel.Counter("sigrec_store_write_errors_total")
	mBatches          = tel.Counter("sigrec_batches_total")

	// Latency histograms, all on telemetry.LatencyBuckets: the recovery
	// total (the Fig. 17 distribution, and the SLO and hedge input) and
	// the four phases that attribute where recovery time goes.
	mRecoverUS  = tel.Histogram("sigrec_recover_duration_microseconds")
	mDisasmUS   = tel.Histogram("sigrec_phase_disasm_microseconds")
	mDispatchUS = tel.Histogram("sigrec_phase_dispatch_microseconds")
	mExploreUS  = tel.Histogram("sigrec_phase_explore_microseconds")
	mInferUS    = tel.Histogram("sigrec_phase_infer_microseconds")

	// Interner and forked-state instruments. Hit rate is exposed as a
	// permille gauge so it reads directly off the exposition endpoint; pool
	// reuse is derived as gets - allocs.
	mInternHits    = tel.Counter("sigrec_intern_hits_total")
	mInternMisses  = tel.Counter("sigrec_intern_misses_total")
	mInternHitRate = tel.Gauge("sigrec_intern_hit_rate_permille")
	mCloneBytes    = tel.Counter("sigrec_state_clone_bytes_total")
	mStateGets     = tel.Counter("sigrec_state_pool_gets_total")
	mStateAllocs   = tel.Counter("sigrec_state_pool_allocs_total")

	// mTruncCause breaks truncated recoveries down by which budget was
	// hit first; its causes sum to mTruncated.
	mTruncCause = tel.CounterVec("sigrec_truncations_total", "cause")
)

// mRuleFired holds one pre-resolved counter per inference rule, indexed by
// RuleID, so inference.hit pays a single atomic add — no map lookup — to
// keep the live R1-R31 distribution on the exposition. Index 0 is unused.
var mRuleFired = func() [NumRules + 1]*telemetry.Counter {
	vec := tel.CounterVec("sigrec_rule_fired_total", "rule")
	var arr [NumRules + 1]*telemetry.Counter
	for r := 1; r <= NumRules; r++ {
		// Pre-registering every rule makes all 31 series visible on the
		// exposition from startup, zeros included.
		arr[r] = vec.With(RuleID(r).String())
	}
	return arr
}()

// Metrics returns the pipeline's telemetry registry. Counters are
// cumulative for the process lifetime; use Snapshot deltas to meter a
// single run.
func Metrics() *telemetry.Registry { return tel }

// reportRecovery derives everything one recovery reports from its record
// ev: the recovery counter and latency histogram for every call; the
// error, truncation, truncation-cause and function counters and the four
// phase histograms for computed recoveries only (a cache hit's result was
// counted when it was computed, and empty bytecode is rejected before any
// phase is clocked); and, when the event log is on, the wide event with its
// rule-fire vector and its sequence number on the trace. The heap copy of
// ev is made only on that branch, so the events-off path allocates
// nothing here.
func reportRecovery(ctx context.Context, ev *eventlog.Event, rules *RuleStats, log *eventlog.Writer) {
	computed := ev.Cache == ""
	mRecoveries.Inc()
	mRecoverUS.ObserveExemplar(uint64(ev.DurUS), ev.RequestID)
	if computed {
		if ev.Error != "" {
			mRecoverErrors.Inc()
		}
		if ev.Truncated {
			mTruncated.Inc()
			mTruncCause.With(ev.TruncCause).Inc()
		}
		mFunctions.Add(uint64(ev.Functions))
		if ev.CodeBytes > 0 {
			mDisasmUS.Observe(uint64(ev.DisasmUS))
			mDispatchUS.Observe(uint64(ev.DispatchUS))
			mExploreUS.Observe(uint64(ev.ExploreUS))
			mInferUS.Observe(uint64(ev.InferUS))
		}
	}
	if log == nil {
		return
	}
	out := *ev
	for r := 1; computed && r <= NumRules; r++ {
		if n := rules[r]; n > 0 {
			if out.RuleFires == nil {
				out.RuleFires = make(map[string]uint64, 4)
			}
			out.RuleFires[RuleID(r).String()] = n
		}
	}
	if seq := log.Emit(&out); seq != 0 {
		obs.FromContext(ctx).SetEventSeq(seq)
	}
}

// finishTASE folds one finished exploration into the recovery's record ev
// and into the aggregate counters. It runs on the recovery's goroutine, in
// selector order, so ev's first-wins TruncCause is the same at every
// fan-out width.
func finishTASE(t *taseCounts, ev *eventlog.Event) {
	ev.Paths += int64(t.paths)
	ev.Steps += int64(t.totSteps)
	ev.Pruned += int64(t.pruned)
	ev.AddIntern(t.internHits, t.internMisses)
	if ev.TruncCause == "" {
		ev.TruncCause = t.cause
	}
	meterTASE(t)
}

// meterTASE flushes one finished exploration's counters into the pipeline
// telemetry. Per-trace counts are accumulated locally during exploration
// and flushed here in one shot, so the hot loop never touches an atomic.
func meterTASE(t *taseCounts) {
	mPathsExplored.Add(uint64(t.paths))
	mPathsPruned.Add(uint64(t.pruned))
	mTASESteps.Add(uint64(t.totSteps))
	mEvents.Add(uint64(t.events))
	mStateGets.Add(t.stateGets)
	mCloneBytes.Add(t.cloneBytes)
	mInternHits.Add(t.internHits)
	mInternMisses.Add(t.internMisses)
	if total := mInternHits.Load() + mInternMisses.Load(); total > 0 {
		mInternHitRate.Set(int64(mInternHits.Load() * 1000 / total))
	}
}
