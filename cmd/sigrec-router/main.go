// Command sigrec-router is the stateless front door of a sigrecd cluster:
// it routes each recovery to the shard that owns the bytecode's keccak on
// a consistent-hash ring, and papers over slow and dead shards.
//
// Usage:
//
//	sigrec-router -addr :8400 -shards s1=http://h1:8409,s2=http://h2:8409,s3=http://h3:8409
//
// Endpoints:
//
//	POST /v1/recover        routed single recovery (same wire schema as sigrecd)
//	POST /v1/recover/batch  NDJSON batch; each line routed independently
//	GET  /metrics           router + per-shard series
//	GET  /healthz           pool state; 503 when no shard is healthy
//	GET  /debug/trace/{id}  stitched cross-process trace: router spans plus
//	                        every shard's, fanned out and merged
//	GET  /debug/slowest     the router's own flight recorder
//
// Routing policy, in order:
//
//   - Placement: the ring owner of keccak(bytecode) on a 160-vnode ring,
//     diverted to the ring successor when the owner is past the
//     bounded-load limit (1.25 times the mean inflight).
//   - Circuit breaking: a shard that fails 3 times in a row is skipped
//     for 1s, then probed with one request. Shard health and p95 are
//     polled every 500ms.
//   - Hedging (-hedge): when the owner has not answered within its own
//     scraped p95 latency (clamped to [2ms, 500ms]; 500ms before the
//     first scrape), the request is also sent to the next shard and the
//     first answer wins.
//   - Retry: transport errors and 502/503/504 move the request to the
//     ring successor; 429 retries without a breaker strike; other
//     statuses are relayed as-is (a deterministic failure will not
//     improve on another shard).
//   - Batches keep at most 4 upstream calls per shard in flight.
//
// These values are fixed in package cluster, not flags.
//
// The router holds no recovery state: kill it and start another and
// nothing is lost. Every forwarded attempt carries a globally unique
// X-Request-Id (the client's id plus an attempt counter) so shard event
// logs join exactly to client requests even across retries and hedges.
//
// Tracing: an inbound W3C traceparent is adopted (malformed ones start a
// fresh root, counted in sigrec_trace_context_total), the route decision
// and every attempt become spans in the router's flight recorder, and each
// forwarded attempt carries a traceparent whose parent span id is derived
// from the attempt's X-Request-Id — so shard recovery trees nest under the
// exact attempt that caused them, with no id exchange beyond the headers.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"sigrec/internal/cluster"
	"sigrec/internal/daemon"
	"sigrec/internal/obs"
	"sigrec/internal/server"
	"sigrec/internal/telemetry"
)

func main() {
	if err := run(flag.CommandLine, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "sigrec-router:", err)
		os.Exit(1)
	}
}

func run(fs *flag.FlagSet, args []string) error {
	var (
		addr      = fs.String("addr", ":8400", "listen address")
		shardSpec = fs.String("shards", "", "comma-separated shard pool as id=url (required)")
		timeout   = fs.Duration("timeout", cluster.DefaultTimeout, "end-to-end deadline per routed request, across retries and hedges")
		maxBody   = fs.Int64("maxbody", server.DefaultMaxBodyBytes, "max request-body bytes (and max batch line)")
		hedge     = fs.Bool("hedge", true, "hedge slow requests to the ring successor after the owner's p95-derived delay")
	)
	df := daemon.Register(fs, daemon.Defaults{
		ServiceName:   "sigrec-router",
		OTLPUsage:     "OTLP/HTTP collector base URL; router metrics and span trees are exported there (empty = export off)",
		SlowestUsage:  "routed requests retained in the router's flight recorder (0 = tracing off)",
		IntervalUsage: "OTLP flush cadence: one metrics snapshot per tick",
	})
	if err := fs.Parse(args); err != nil {
		return err
	}

	if df.Version {
		fmt.Println(obs.VersionString())
		return nil
	}
	logger, err := daemon.NewLogger(os.Stderr, df.LogFormat, df.LogLevel)
	if err != nil {
		return err
	}
	shards, err := daemon.ParseAddrs("-shards", *shardSpec, true)
	if err != nil {
		fs.Usage()
		return err
	}

	// OTLP export ships the router's own registry (routing counters,
	// per-shard health, the latency histogram) and — through the tracer's
	// sink — the span tree recorded for every routed request: route
	// decision, per-attempt client spans, health polls.
	reg := telemetry.NewRegistry()
	proc, err := daemon.Start(df, daemon.Config{Logger: logger, Registry: reg})
	if err != nil {
		return err
	}

	rt, err := cluster.NewRouter(cluster.Config{
		Shards:       shards,
		Timeout:      *timeout,
		MaxBodyBytes: *maxBody,
		Hedge:        *hedge,
		Registry:     reg,
		Tracer:       proc.Tracer,
		Logger:       logger,
	})
	if err != nil {
		return err
	}
	defer rt.Close()

	hs := &http.Server{
		Addr:              *addr,
		Handler:           rt.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()

	ver, goVer := obs.Version()
	logger.Info("sigrec-router listening",
		"addr", *addr,
		"shards", len(shards),
		"timeout", (*timeout).String(),
		"hedge", *hedge,
		"tracing", proc.Tracer != nil,
		"otlp_endpoint", df.OTLPEndpoint,
		"version", ver,
		"go_version", goVer,
	)

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	stop()
	logger.Info("sigrec-router shutting down")
	sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	serr := hs.Shutdown(sctx)
	rt.Close()
	proc.Close(sctx)
	if errors.Is(serr, context.DeadlineExceeded) {
		return errors.New("shutdown deadline exceeded")
	}
	return serr
}
