#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run in and
# runs it with the given arguments. Run it from the repository root:
#
#   bash bench/run.sh --workload corpus-e3 --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/: the Go
# build cache, the binary, the workloads' data directories and the spans
# of traced runs.
set -euo pipefail

out="$(pwd)/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/config" "$out/gomodcache"
(
	cd bench
	GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOMODCACHE="$out/gomodcache" \
		XDG_CONFIG_HOME="$out/config" GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off \
		go build -o "$out/sigrec-bench" .
)
exec "$out/sigrec-bench" "$@"
