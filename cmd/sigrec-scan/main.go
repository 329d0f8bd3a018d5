// Command sigrec-scan follows a chain and recovers function signatures
// from every contract deployment it sees, forever.
//
// Usage:
//
//	sigrec-scan -data /var/lib/sigrec-scan -seed 1 -chain-blocks 2000 -end 1999
//	sigrec-scan -data /var/lib/sigrec-scan -seed 1 -chain-blocks 100000 -live
//
// The scanner runs one bounded pipeline in two modes: backfill (scan a
// historical range at full throughput, then exit) and live (tail the
// head with bounded lag until signaled). Stages: block ingest ->
// deployment extraction -> proxy resolution (byte-exact EIP-1167
// matching plus a bounded concrete-interpreter probe for non-minimal
// DELEGATECALL forwarders) -> dedupe against the persistent result store
// -> recovery -> publish into the EFSD JSON and the wide-event log.
//
// Progress is checkpointed durably under -data/checkpoint: the event log
// is fsynced before each cursor save, so a SIGKILLed scanner restarted
// with the same flags resumes exactly, recomputing nothing that reached
// the store and losing nothing that reached the cursor. The chain source
// is the deterministic synthetic chain from internal/chain (block
// content is a pure function of -seed and the block number), standing in
// for an RPC-backed source the way internal/chain's workload generator
// stands in for mainnet in the ParChecker experiments.
//
// The scan event log is always lossless (no sampling): crash-recovery
// reconciliation needs every deployment's record.
//
// -debug-addr starts the scanner's operator surface — /metrics, /healthz,
// /debug/slowest, /debug/slo, /debug/events, and pprof — the same mux
// sigrecd serves, so fleet dashboards scrape every binary identically.
// -otlp-endpoint exports per-deployment span trees and metrics snapshots
// to an OTLP/HTTP collector; an SLO burn-rate engine always evaluates
// scan availability and recovery latency, logging alert transitions as
// "slo_alert" wide events.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"sigrec/internal/chain"
	"sigrec/internal/core"
	"sigrec/internal/eventlog"
	"sigrec/internal/obs"
	"sigrec/internal/otlp"
	"sigrec/internal/scan"
	"sigrec/internal/server"
	"sigrec/internal/slo"
	"sigrec/internal/store"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "sigrec-scan:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		dataDir = flag.String("data", "", "state directory: store/, checkpoint/, events.ndjson, efsd.json (required)")

		seed      = flag.Int64("seed", 1, "synthetic chain seed (same seed = same chain)")
		chainLen  = flag.Uint64("chain-blocks", 10000, "synthetic chain length in blocks")
		perBlock  = flag.Int("deploys-per-block", 4, "contract deployments per block")
		proxyRate = flag.Float64("proxy-rate", 0.35, "fraction of deployments that are proxies")
		facade    = flag.Float64("facade-share", 0.25, "share of proxies that are non-minimal DELEGATECALL facades")
		templates = flag.Int("templates", 16, "distinct implementation contracts on the synthetic chain")

		live      = flag.Bool("live", false, "follow the head instead of backfilling a fixed range")
		headStart = flag.Uint64("head-start", 0, "live mode: head block at startup")
		headMS    = flag.Int("head-interval-ms", 0, "live mode: milliseconds per new block (0 = head fixed at the chain end)")
		endBlock  = flag.Uint64("end", 0, "backfill mode: last block to scan, inclusive (0 = chain end)")
		poll      = flag.Duration("poll", scan.DefaultPollInterval, "live mode head poll interval")

		workers  = flag.Int("workers", scan.DefaultWorkers, "recovery worker pool size")
		queue    = flag.Int("queue", scan.DefaultQueueDepth, "pipeline channel depth (bounds ingest-ahead)")
		ckEvery  = flag.Int("checkpoint-every", scan.DefaultCheckpointEvery, "deployments between checkpoint saves")
		cacheEnt = flag.Int("cache", 4096, "in-memory result-cache entries over the store")

		budget  = flag.Int("budget", 0, "TASE step budget per exploration (0 = built-in default)")
		paths   = flag.Int("maxpaths", 0, "explored-path cap per exploration (0 = built-in default)")
		timeout = flag.Duration("timeout", 2*time.Second, "per-contract recovery deadline (0 = unbounded)")

		eventMB   = flag.Int("event-log-max-mb", 64, "rotate the event log past this many MB per segment")
		debugAddr = flag.String("debug-addr", "", "listen address for the scanner's operator surface: /metrics, /healthz, /debug/slowest, /debug/trace/{id}, /debug/slo, /debug/events, pprof (empty = disabled)")
		otlpEP    = flag.String("otlp-endpoint", "", "OTLP/HTTP collector base URL; deployment span trees and metrics are exported there (empty = export off)")
		otlpIntv  = flag.Duration("otlp-interval", otlp.DefaultInterval, "OTLP flush cadence: trace batches at least this often, one metrics snapshot per tick")
		svcName   = flag.String("service-name", "sigrec-scan", "service.name resource attribute on every OTLP export")
		sloLatUS  = flag.Duration("slo-latency-threshold", 500*time.Millisecond, "latency SLO: the duration 99% of recoveries must complete under (0 = latency objective off)")
		slowest   = flag.Int("trace-slowest", obs.DefaultSlowest, "recoveries retained in the flight recorder (0 = tracing off)")
		logFormat = flag.String("log-format", "text", "log output format: text or json")
		logLevel  = flag.String("log-level", "info", "minimum log level: debug, info, warn, or error")
		stats     = flag.Bool("stats", true, "dump a final metrics snapshot to stderr on exit")
		version   = flag.Bool("version", false, "print version and exit")
	)
	flag.Parse()

	if *version {
		fmt.Println(obs.VersionString())
		return nil
	}
	if *dataDir == "" {
		flag.Usage()
		return errors.New("-data is required")
	}
	if *perBlock <= 0 || *templates <= 0 || *chainLen == 0 {
		return errors.New("-deploys-per-block, -templates, and -chain-blocks must be positive")
	}

	logger, err := buildLogger(*logFormat, *logLevel)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(*dataDir, 0o755); err != nil {
		return err
	}

	tmpls, err := chain.SyntheticTemplates(*seed, *templates)
	if err != nil {
		return err
	}
	source, err := chain.NewSynthetic(chain.SourceConfig{
		Seed:            *seed,
		Blocks:          *chainLen,
		DeploysPerBlock: *perBlock,
		ProxyRate:       *proxyRate,
		FacadeShare:     *facade,
		Templates:       chain.TemplateCodes(tmpls),
		HeadStart:       *headStart,
		HeadInterval:    time.Duration(*headMS) * time.Millisecond,
	})
	if err != nil {
		return err
	}

	resultStore, err := store.Open(filepath.Join(*dataDir, "store"), store.Options{})
	if err != nil {
		return err
	}
	events, err := eventlog.New(eventlog.Config{
		Path:     filepath.Join(*dataDir, "events.ndjson"),
		MaxBytes: int64(*eventMB) << 20,
		Registry: core.Metrics(),
	})
	if err != nil {
		resultStore.Close()
		return err
	}
	cp, resume, haveResume, err := scan.OpenCheckpoint(filepath.Join(*dataDir, "checkpoint"))
	if err != nil {
		events.Close()
		resultStore.Close()
		return err
	}

	end := *endBlock
	if end == 0 || end >= *chainLen {
		end = *chainLen - 1
	}

	// OTLP export: per-deployment span trees flow tracer -> exporter sink
	// -> collector; metrics snapshots ship each interval. -trace-slowest 0
	// disables span export along with the flight recorder.
	reg := core.Metrics()
	var exporter *otlp.Exporter
	if *otlpEP != "" {
		ver, _ := obs.Version()
		exporter = otlp.New(otlp.Config{
			Endpoint:    *otlpEP,
			Interval:    *otlpIntv,
			ServiceName: *svcName,
			Resource:    map[string]string{"service.version": ver},
			Registry:    reg,
			Logger:      logger,
		})
	}
	var tracer *obs.Tracer
	if *slowest > 0 {
		tracer = obs.New(obs.Config{Slowest: *slowest, Sink: exporter.Sink()})
	}

	// Burn-rate engine over the scanner's own outcome counters (errors are
	// a subset of completions, so the availability SLI is exact) plus an
	// optional latency objective on the recovery histogram. State serves at
	// /debug/slo on -debug-addr; transitions land in the event log.
	objectives := []slo.Objective{{
		Name:   "availability",
		Target: 0.999,
		Source: slo.CounterSource{
			Total:  reg.Counter("sigrec_scan_recoveries_total"),
			Errors: reg.Counter("sigrec_scan_recover_errors_total"),
		},
	}}
	if *sloLatUS > 0 {
		objectives = append(objectives, slo.Objective{
			Name:   fmt.Sprintf("latency_p99_%s", *sloLatUS),
			Target: 0.99,
			Source: slo.LatencySource{
				Histogram:   reg.Histogram("sigrec_recover_duration_microseconds"),
				ThresholdUS: float64(sloLatUS.Microseconds()),
			},
		})
	}
	sloEval := slo.New(slo.Config{
		Objectives: objectives,
		Registry:   reg,
		Events:     events,
	})
	cfg := scan.Config{
		Source:          source,
		Cache:           core.NewTieredCache(*cacheEnt, resultStore).Cache,
		EventLog:        events,
		Checkpoint:      cp,
		EFSDPath:        filepath.Join(*dataDir, "efsd.json"),
		Live:            *live,
		EndBlock:        end,
		PollInterval:    *poll,
		Workers:         *workers,
		QueueDepth:      *queue,
		CheckpointEvery: *ckEvery,
		Recover: core.Options{
			StepBudget: *budget,
			MaxPaths:   *paths,
			Deadline:   *timeout,
		},
		Tracer: tracer,
		Logger: logger,
	}
	if haveResume {
		cfg.Resume = &resume
		logger.Info("resuming from checkpoint", "cursor", resume.String())
	} else {
		logger.Info("starting from genesis")
	}
	scanner, err := scan.New(cfg)
	if err != nil {
		events.Close()
		resultStore.Close()
		return err
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	mode := "backfill"
	if *live {
		mode = "live"
	}

	sloEval.Start()
	if exporter != nil {
		exporter.Start()
	}
	// The debug listener is the scanner's only HTTP surface, so unlike
	// sigrecd it also mounts /metrics and /healthz here.
	var dbg *http.Server
	if *debugAddr != "" {
		dbg = &http.Server{
			Addr: *debugAddr,
			Handler: server.DebugHandler(server.DebugOptions{
				Tracer:  tracer,
				Events:  events,
				SLO:     sloEval,
				Metrics: reg,
				Trace: server.TraceHandler(server.TraceOptions{
					Service: *svcName,
					Tracer:  tracer,
				}),
				Health: func() any {
					return struct {
						Status string `json:"status"`
						Mode   string `json:"mode"`
					}{"ok", mode}
				},
			}),
			ReadHeaderTimeout: 10 * time.Second,
		}
		go func() {
			if err := dbg.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				logger.Error("debug listener failed", "err", err)
			}
		}()
	}

	logger.Info("scan starting", "mode", mode, "data", *dataDir, "seed", *seed,
		"blocks", *chainLen, "end", end, "workers", cfg.Workers,
		"debug_addr", *debugAddr, "otlp_endpoint", *otlpEP)

	serr := scanner.Run(ctx)

	sloEval.Close()
	sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if dbg != nil {
		_ = dbg.Shutdown(sctx)
	}
	// Flush the export queue after the pipeline drains so the collector
	// sees the final deployments and terminal counter values.
	if exporter != nil {
		if err := exporter.Close(sctx); err != nil {
			logger.Warn("otlp exporter close timed out", "err", err)
		}
	}

	// Drain order mirrors sigrecd: finish the pipeline (Run already saved
	// the final checkpoint), then close the log (flush + fsync), then the
	// store.
	if err := events.Close(); err != nil {
		logger.Error("event log close failed", "err", err)
	}
	st := resultStore.Stats()
	if err := resultStore.Close(); err != nil {
		logger.Error("result store close failed", "err", err)
	} else {
		logger.Info("result store closed", "records", st.Records, "segments", st.Segments)
	}
	if *stats {
		if _, err := core.Metrics().WriteTo(os.Stderr); err != nil {
			logger.Error("metrics dump failed", "err", err)
		}
	}
	if serr != nil {
		return serr
	}
	logger.Info("scan drained")
	return nil
}

func buildLogger(format, level string) (*slog.Logger, error) {
	var lv slog.Level
	switch level {
	case "debug":
		lv = slog.LevelDebug
	case "info":
		lv = slog.LevelInfo
	case "warn":
		lv = slog.LevelWarn
	case "error":
		lv = slog.LevelError
	default:
		return nil, fmt.Errorf("unknown -log-level %q", level)
	}
	opts := &slog.HandlerOptions{Level: lv}
	switch format {
	case "text":
		return slog.New(slog.NewTextHandler(os.Stderr, opts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, opts)), nil
	default:
		return nil, fmt.Errorf("unknown -log-format %q", format)
	}
}
