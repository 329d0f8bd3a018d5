# The `check` target is the tier-1 gate: .github/workflows/ci.yml runs
# exactly these targets, so the local and CI command sequences cannot
# drift. Run `make check` before pushing.

GO ?= go

.PHONY: check fmt vet build test race golden serve serve-e2e obs-e2e analytics-e2e cluster-e2e scan-e2e fuzz-smoke bench-smoke bench-check bench-gate

check: fmt vet build test race

fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

# The deadline tests run 50 more times: each takes milliseconds, and a
# deadline assertion that holds only on most runs (a timing flake) shows
# up here rather than once in a while in CI.
test:
	$(GO) test ./...
	$(GO) test -count=50 -run '^TestDeadline' ./internal/core

# ./internal/scan runs RecoverContext concurrently with both a result
# cache and an event log, so it races the cache-hit half of the engine's
# per-recovery record. ./internal/daemon's Close shuts the debug listener
# down while the exporter and event-log goroutines drain. The recycling
# tests run 10 more times: interners, slab chunks (nodes, guard and
# copy-region chains), event buffers and exploration states with their
# buffers and inference scratch pass between goroutines through
# sync.Pools, and a chunk recycled while a trace still reaches it, or a
# result that aliases a pooled buffer, shows up on some schedules only.
# So do the coalescing tests: a herd on one bytecode, through
# RecoverContext and through the scanner's workers, must compute it once
# on every schedule (~40 s).
race:
	$(GO) test -race ./internal/core ./internal/evm ./internal/server ./internal/scan ./internal/daemon
	$(GO) test -race -count=10 -run '^(TestInternerRecycleConcurrent|TestHeldTracesSurviveRecycling|TestHeldResultsSurviveRecycling|TestPoolsDropOverCapBuffers|TestGuardChains|TestForkCopiesPathState|TestForkAllocsFlat|TestRecoverContextCoalesces)$$' ./internal/core
	$(GO) test -race -count=10 -run '^TestScannerComputesTemplateOnce$$' ./internal/scan

# Re-record the per-signature golden (internal/core/testdata/
# signatures.golden) and the engine-counter golden (engine_counts.golden)
# from the current engine and show what moved. `make check` gates against
# the committed files; re-record only when the diff below is the intended
# effect of the change, and say why in CHANGES.md.
golden:
	$(GO) test -count=1 ./internal/core -run '^(TestSignatureGolden|TestEngineCountsGolden)$$' -update
	git diff --stat -- internal/core/testdata

# Run the sigrecd HTTP daemon locally (see README "Serving" for flags).
serve:
	$(GO) run ./cmd/sigrecd

# End-to-end serving-layer suite under the race detector: single recover,
# streamed batch, 429 shedding, singleflight coalescing, graceful drain,
# and the 200-contract load smoke through the batch endpoint (CI job
# "smoke").
serve-e2e:
	$(GO) test -race -count=1 ./internal/server

# Observability end-to-end suite under the race detector: span-tree
# recording and flight-recorder retention (internal/obs), the OTLP
# exporter and SLO burn-rate engine unit suites, plus the served surfaces
# — request-ID echo into logs and traces, /debug/slowest span trees for
# truncated recoveries, strict /metrics text-format conformance, the
# pprof/SLO debug handler, and the live-export reconciliation: a real
# sigrecd under load ships spans to an in-process OTLP collector and the
# exported root-span count must equal the flight recorder's recovery
# count and the sigrec_recoveries_total delta exactly (CI job "smoke").
# Distributed tracing rides in the same gate: W3C traceparent
# adopt/reject policy on the serving layer, the /debug/trace stitching
# handler (local and fan-out), and the cluster trace e2e — a router plus
# three traced shards exporting to one in-process collector, reconciled
# span-by-span including a hedged request's cancelled loser.
# Set OBS_E2E_ARTIFACTS to a directory to keep the /debug/slo state of a
# failed reconciliation run.
obs-e2e:
	$(GO) test -race -count=1 ./internal/obs
	$(GO) test -race -count=1 ./internal/otlp
	$(GO) test -race -count=1 ./internal/slo
	$(GO) test -race -count=1 -run 'TestObs|TestTrace' ./internal/server
	$(GO) test -race -count=1 -run 'TestClusterTraceE2E' ./internal/cluster

# Offline-analytics exactness gate under the race detector: sigrecd's
# serving path writes wide events under real batch load with rotation
# forced, the log is replayed the way cmd/sigrec-analyze does, and the
# replay's recovery/error/truncation/function/rule-fire totals must equal
# the /metrics counter deltas exactly, and the replayed latencies must
# reproduce every bucket delta of the recovery and phase histograms
# (CI job "smoke").
analytics-e2e:
	$(GO) test -race -count=1 -run 'TestAnalyticsE2E' ./internal/server
	$(GO) test -race -count=1 ./internal/eventlog

# Multi-node cluster gate under the race detector: build real sigrecd and
# sigrec-router binaries, run a 3-shard cluster behind the router, SIGKILL
# a shard mid-load and restart it, then reconcile every client-observed
# success against the union of the shards' event logs — no recovery lost,
# no attempt id duplicated, cache hit rate restored after the restart, a
# peer cache fill observed, and hedges firing on a hedging router (CI job
# "cluster"). Traces reconcile too: every winner's trace shows exactly one
# winning attempt span with the shard's recovery tree under it, hedge
# losers are present and cancelled, and orphans only appear across the
# kill window. Set CLUSTER_E2E_ARTIFACTS to keep shard/router logs and
# the stitched traces of the router's slowest requests.
cluster-e2e:
	CLUSTER_E2E=1 $(GO) test -race -count=1 -run 'TestClusterE2E' \
		-timeout 10m -v ./internal/cluster/e2etest

# Chain-scan crash gate under the race detector: build the real
# sigrec-scan binary, backfill a synthetic chain as an OS process,
# SIGKILL it mid-backfill, restart it with the same flags, and reconcile
# the durable event log, checkpoint cursor, and published EFSD against
# the chain's ground truth — zero deployments lost, duplicates only
# inside the crash-replay window, dedupe held across the restart, and
# every proxy attributed to its implementation's signatures (CI job
# "scan"). Set SCAN_E2E_ARTIFACTS to keep the data dir and process logs.
scan-e2e:
	SCAN_E2E=1 $(GO) test -race -count=1 -run 'TestScanE2E' \
		-timeout 10m -v ./internal/scan/e2etest

# Smoke-run every fuzz target and the E1/E3 experiment benchmarks so the
# harnesses cannot silently rot (CI job "smoke").
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzParseType$$' -fuzztime 10s ./internal/abi
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeTransfer$$' -fuzztime 10s ./internal/abi
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeNested$$' -fuzztime 10s ./internal/abi
	$(GO) test -run '^$$' -fuzz '^FuzzRecover$$' -fuzztime 10s ./internal/core
	$(GO) test -run '^$$' -fuzz '^FuzzInferMutatedContract$$' -fuzztime 10s ./internal/core
	$(GO) test -run '^$$' -fuzz '^FuzzMaskForm$$' -fuzztime 10s ./internal/core
	$(GO) test -run '^$$' -fuzz '^FuzzStoreCorruption$$' -fuzztime 10s ./internal/store
	$(GO) test -run '^$$' -fuzz '^FuzzCheckpointParse$$' -fuzztime 10s ./internal/scan
	$(GO) test -run '^$$' -fuzz '^FuzzSave$$' -fuzztime 10s ./internal/efsd

bench-smoke:
	$(GO) test -run '^$$' -bench '^BenchmarkE(1|3)' -benchtime 1x .

# Vet and test the repository benchmark (bench/, its own Go module, so
# `go build ./...` and `make check` never compile it): an API change in
# the packages it drives fails here instead of at the next benchmark run
# (CI job "smoke", ~35s).
bench-check:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# Performance gates (CI job "smoke"). The allocation gates are ordinary
# tests (TestAllocs*, run by `make test`): allocation counts are
# deterministic, so the E3 experiment and whole recoveries over E1 and
# dataset 2 hold fixed ceilings, the tracing, event-log and OTLP pairs
# hold a ceiling on the allocations each adds per recovery, and the
# router-tracing pair holds On within 10% of Off.
# The wall-time gates below are BenchmarkGate* functions: each runs its
# sides in alternating rounds inside one process and judges the median
# round (internal/benchgate). They hold the E3 tracing, event-log and
# OTLP pairs and the router-tracing pair within 25%, a request through
# sigrec-router within 10% of one sent straight to the shard, a warm
# disk lookup under 50us, a warm chain rescan under 25ms, and, on
# machines with >= 4 cores, the engine's selector fan-out at least 2x
# faster than running selectors inline (-v prints the skip below that).
bench-gate:
	$(GO) test -run '^$$' -bench '^BenchmarkGate' -benchtime 1x .
	$(GO) test -run '^$$' -bench '^BenchmarkGate' -benchtime 1x ./internal/cluster
	$(GO) test -run '^$$' -bench '^BenchmarkGate' -benchtime 1x ./internal/scan
	$(GO) test -v -run '^$$' -bench '^BenchmarkGate' -benchtime 1x ./internal/core
