# The `check` target is the tier-1 gate: .github/workflows/ci.yml runs
# exactly these targets, so the local and CI command sequences cannot
# drift. Run `make check` before pushing.

GO ?= go

.PHONY: check fmt vet build test race serve serve-e2e obs-e2e analytics-e2e cluster-e2e scan-e2e fuzz-smoke bench-smoke bench-check bench bench-gate pgo

# BENCH is the tracked benchmark artifact for this PR in the BENCH_<n>.json
# trajectory; bump the number when a PR re-records performance.
BENCH ?= BENCH_10.json

check: fmt vet build test race

fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./internal/core ./internal/evm ./internal/server

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
	$(GO) test -run '^$$' -fuzz '^FuzzStoreCorruption$$' -fuzztime 10s ./internal/store
	$(GO) test -run '^$$' -fuzz '^FuzzCheckpointParse$$' -fuzztime 10s ./internal/scan
	$(GO) test -run '^$$' -fuzz '^FuzzSave$$' -fuzztime 10s ./internal/efsd

bench-smoke:
	$(GO) test -run '^$$' -bench 'E1|E3' -benchtime 1x .

# Vet and test the repository benchmark (bench/, its own Go module, so
# `go build ./...` and `make check` never compile it): an API change in
# the packages it drives fails here instead of at the next benchmark run
# (CI job "smoke", ~35s).
bench-check:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# Record the E1/E3 experiment benchmarks, the serving-layer throughput
# (req/s), the scan backfills, the EFSD publish encoder, and the
# tracing- and event-log-overhead A/B pairs as
# machine-readable JSON so the perf trajectory is tracked across PRs.
# PGOFLAG opts a run into profile-guided builds once `make pgo` has
# recorded default.pgo, e.g. `make bench PGOFLAG=-pgo=default.pgo`.
PGOFLAG ?=

bench:
	( $(GO) test $(PGOFLAG) -run '^$$' -bench 'BenchmarkE1Accuracy$$|BenchmarkE3TimeDistribution$$|BenchmarkE3Tracing|BenchmarkE3Events|BenchmarkE3OTLP|BenchmarkE3Parallel|BenchmarkTieredCacheWarmLookup$$' \
		-benchmem . ; \
	  $(GO) test $(PGOFLAG) -run '^$$' -bench 'BenchmarkServerThroughput$$' \
		-benchmem ./internal/server ; \
	  $(GO) test -run '^$$' -bench 'BenchmarkRouterOverhead|BenchmarkRouterTracing' \
		-benchmem -benchtime 200x -count=5 ./internal/cluster ; \
	  $(GO) test $(PGOFLAG) -run '^$$' -bench 'BenchmarkScanThroughput' \
		-benchmem ./internal/scan ; \
	  $(GO) test $(PGOFLAG) -run '^$$' -bench 'BenchmarkEFSDSave$$' \
		-benchmem ./internal/efsd ) \
		| $(GO) run ./cmd/benchjson -out $(BENCH)

# Gates: (1) fail when E3 allocs/op regresses >10% against the committed
# baseline — allocation counts are deterministic enough for shared CI
# runners, ns/op is recorded but not gated across machines; (2) fail when
# span tracing, wide-event emission, or OTLP export (the E3OTLP pair: the
# hot path pays only the sink's non-blocking enqueue) gets expensive. PR 7
# halved the
# base recovery time, which made the old 5%/3% wall-time A/Bs a noise
# lottery (the absolute budget they encoded, ~250-400us per E3 op, is
# now within shared-runner scatter for either the fastest-of-5 or the
# mean-of-5 statistic), so each A/B now gates two things: the On/Off
# allocs/op ratio within 10% — allocation counts are deterministic, and
# any structural regression (a new per-span or per-event allocation)
# moves them immediately — and the mean-of-5 ns/op ratio within 25% as
# a gross-slowdown backstop (observed pure-noise scatter on the shared
# box reaches ~17%; a real blowup like the +80% tracing bug this gate
# once caught still trips instantly); (4) fail when
# routing through sigrec-router adds >10% latency over hitting the shard
# directly. The router A/B crosses an HTTP hop, so it gates the
# mean-over-count rather than the fastest run — machine drift during the
# invocation hits both sides alike and cancels in the mean ratio, while
# min-of-N is a lottery over which side caught the quietest window. For
# the drift to hit both sides alike the runs alternate: five -count=1
# invocations (Direct, Proxied, Direct, ...) rather than one -count=5,
# which ran all five Direct runs before any Proxied one.
# (4b) the RouterTracing A/B gates the router's span machinery the same
# way the E3 pairs gate the shard's: allocs/op within 10% (the span tree
# is a fixed handful of allocations next to a recovery's thousands) and
# mean ns/op within 25% as the gross-slowdown backstop.
# (5) fail when the warm disk lookup (TieredCache restart path) exceeds
# 50us/op — an absolute ceiling: the whole point of the store is that a
# warm hit costs microseconds, not a recovery. (6) on machines with >=4
# cores, fail unless parallel selector exploration is at least 2x faster
# than sequential over the multi-selector corpus (negative tolerance =
# demanded improvement); skipped below 4 cores, where the pool cannot
# express itself. (7) fail when a warm chain rescan (80 deployments, all
# served by dedupe against a populated store) exceeds 25ms/op — an
# absolute throughput floor of >3000 deployments/s for the scanner's
# restart path; the observed figure is ~1.6ms, so the ceiling gates
# structural regressions (a recompute sneaking into the warm path), not
# runner scatter.
bench-gate:
	$(GO) test -run '^$$' -bench 'BenchmarkE3TimeDistribution$$|BenchmarkE3Tracing|BenchmarkE3Events|BenchmarkE3OTLP|BenchmarkTieredCacheWarmLookup$$' \
		-benchmem -count=5 . | $(GO) run ./cmd/benchjson -out bench_current.json
	$(GO) run ./cmd/benchjson -check -baseline bench_baseline.json \
		-current bench_current.json -bench E3TimeDistribution \
		-metric allocs_per_op -tolerance 0.10
	$(GO) run ./cmd/benchjson -check -current bench_current.json \
		-bench TieredCacheWarmLookup -metric ns_per_op -max 50000
	$(GO) run ./cmd/benchjson -check -baseline bench_current.json \
		-current bench_current.json -basebench E3TracingOff \
		-bench E3TracingOn -metric allocs_per_op -tolerance 0.10
	$(GO) run ./cmd/benchjson -check -baseline bench_current.json \
		-current bench_current.json -basebench E3TracingOff \
		-bench E3TracingOn -metric mean_ns_per_op -tolerance 0.25
	$(GO) run ./cmd/benchjson -check -baseline bench_current.json \
		-current bench_current.json -basebench E3EventsOff \
		-bench E3EventsOn -metric allocs_per_op -tolerance 0.10
	$(GO) run ./cmd/benchjson -check -baseline bench_current.json \
		-current bench_current.json -basebench E3EventsOff \
		-bench E3EventsOn -metric mean_ns_per_op -tolerance 0.25
	$(GO) run ./cmd/benchjson -check -baseline bench_current.json \
		-current bench_current.json -basebench E3OTLPOff \
		-bench E3OTLPOn -metric allocs_per_op -tolerance 0.10
	$(GO) run ./cmd/benchjson -check -baseline bench_current.json \
		-current bench_current.json -basebench E3OTLPOff \
		-bench E3OTLPOn -metric mean_ns_per_op -tolerance 0.25
	@rm -f bench_router.txt
	for i in 1 2 3 4 5; do \
		$(GO) test -run '^$$' -bench 'BenchmarkRouterOverhead|BenchmarkRouterTracing' \
			-benchmem -benchtime 200x -count=1 ./internal/cluster >> bench_router.txt || exit 1; \
	done
	$(GO) run ./cmd/benchjson -out bench_router.json < bench_router.txt
	$(GO) run ./cmd/benchjson -check -baseline bench_router.json \
		-current bench_router.json -basebench RouterOverheadDirect \
		-bench RouterOverheadProxied -metric mean_ns_per_op -tolerance 0.10
	$(GO) run ./cmd/benchjson -check -baseline bench_router.json \
		-current bench_router.json -basebench RouterTracingOff \
		-bench RouterTracingOn -metric allocs_per_op -tolerance 0.10
	$(GO) run ./cmd/benchjson -check -baseline bench_router.json \
		-current bench_router.json -basebench RouterTracingOff \
		-bench RouterTracingOn -metric mean_ns_per_op -tolerance 0.25
	$(GO) test -run '^$$' -bench 'BenchmarkScanThroughputWarm$$' \
		-benchmem -count=3 ./internal/scan \
		| $(GO) run ./cmd/benchjson -out bench_scan.json
	$(GO) run ./cmd/benchjson -check -current bench_scan.json \
		-bench ScanThroughputWarm -metric ns_per_op -max 25000000
	@if [ "$$(nproc)" -ge 4 ]; then \
		$(GO) test -run '^$$' -bench 'BenchmarkE3Parallel' \
			-benchmem -count=5 . | $(GO) run ./cmd/benchjson -out bench_par.json && \
		$(GO) run ./cmd/benchjson -check -baseline bench_par.json \
			-current bench_par.json -basebench E3ParallelOff \
			-bench E3ParallelOn -metric mean_ns_per_op -tolerance -0.5; \
	else \
		echo "bench-gate: skipping E3Parallel speedup gate ($$(nproc) cores < 4)"; \
	fi
	@rm -f bench_current.json bench_router.txt bench_router.json bench_par.json bench_scan.json

# Capture a CPU profile of sigrecd serving the corpus recovery workload
# through its pprof endpoint and install it as default.pgo (committed);
# see scripts/pgo.sh. Rebuild or re-bench with PGOFLAG=-pgo=default.pgo.
pgo:
	sh scripts/pgo.sh
