// Package daemon is the operator surface the long-running binaries —
// sigrecd, sigrec-scan and sigrec-router — share: the common flags, the
// logger, the wide-event log, the OTLP exporter and the tracer that feeds
// it, the SLO burn-rate engine, the debug listener, and one drain order
// for all of them.
package daemon

import (
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"maps"
	"net/http"
	"os"
	"strings"
	"time"

	"sigrec/internal/cluster"
	"sigrec/internal/eventlog"
	"sigrec/internal/obs"
	"sigrec/internal/otlp"
	"sigrec/internal/server"
	"sigrec/internal/slo"
	"sigrec/internal/telemetry"
)

// Defaults is one binary's share of the common flags: their defaults, and
// the usage texts that say what this binary traces, exports and serves.
type Defaults struct {
	// ServiceName is the -service-name default.
	ServiceName string
	// OTLPUsage is the -otlp-endpoint usage text.
	OTLPUsage string
	// SlowestUsage and IntervalUsage, when set, replace the -trace-slowest
	// and -otlp-interval usage texts written for a recovery service.
	SlowestUsage, IntervalUsage string
	// DebugUsage, when set, registers -debug-addr with this usage text.
	DebugUsage string
	// SLOLatency, when positive, registers -slo-latency-threshold with
	// this default.
	SLOLatency time.Duration
	// EventLog registers -event-log-max-mb.
	EventLog bool
}

// Flags holds the parsed common flags.
type Flags struct {
	LogFormat, LogLevel string
	Slowest             int
	OTLPEndpoint        string
	OTLPInterval        time.Duration
	ServiceName         string
	Version             bool
	DebugAddr           string
	SLOLatency          time.Duration
	EventLogMaxMB       int
}

// Register defines the common flags on fs.
func Register(fs *flag.FlagSet, d Defaults) *Flags {
	f := &Flags{}
	fs.StringVar(&f.LogFormat, "log-format", "text", "log output format: text or json")
	fs.StringVar(&f.LogLevel, "log-level", "info", "minimum log level: debug, info, warn, or error")
	fs.IntVar(&f.Slowest, "trace-slowest", obs.DefaultSlowest,
		cmp.Or(d.SlowestUsage, "recoveries retained in the flight recorder (0 = tracing off)"))
	fs.StringVar(&f.OTLPEndpoint, "otlp-endpoint", "", d.OTLPUsage)
	fs.DurationVar(&f.OTLPInterval, "otlp-interval", otlp.DefaultInterval,
		cmp.Or(d.IntervalUsage, "OTLP flush cadence: trace batches at least this often, one metrics snapshot per tick"))
	fs.StringVar(&f.ServiceName, "service-name", d.ServiceName, "service.name resource attribute on every OTLP export")
	fs.BoolVar(&f.Version, "version", false, "print version and exit")
	if d.DebugUsage != "" {
		fs.StringVar(&f.DebugAddr, "debug-addr", "", d.DebugUsage)
	}
	if d.SLOLatency > 0 {
		fs.DurationVar(&f.SLOLatency, "slo-latency-threshold", d.SLOLatency,
			"latency SLO: the duration 99% of recoveries must complete under (0 = latency objective off)")
	}
	if d.EventLog {
		fs.IntVar(&f.EventLogMaxMB, "event-log-max-mb", 64, "rotate the event log past this many MB per segment")
	}
	return f
}

// Surface renders every flag registered on fs, sorted by name, the way
// -h shows it: name, value type, default and usage. A binary's test pins
// this against a golden file, so adding, dropping or re-defaulting a flag
// is a reviewed change rather than a side effect.
func Surface(fs *flag.FlagSet) string {
	var b strings.Builder
	fs.VisitAll(func(f *flag.Flag) {
		typ, usage := flag.UnquoteUsage(f)
		if typ != "" {
			typ = " " + typ
		}
		fmt.Fprintf(&b, "-%s%s = %q\n\t%s\n", f.Name, typ, f.DefValue, usage)
	})
	return b.String()
}

// NewLogger maps -log-format and -log-level, matched case-insensitively,
// onto a slog.Logger writing to w.
func NewLogger(w io.Writer, format, level string) (*slog.Logger, error) {
	var lvl slog.Level
	switch strings.ToLower(level) {
	case "debug":
		lvl = slog.LevelDebug
	case "info":
		lvl = slog.LevelInfo
	case "warn":
		lvl = slog.LevelWarn
	case "error":
		lvl = slog.LevelError
	default:
		return nil, fmt.Errorf("unknown -log-level %q (want debug, info, warn, or error)", level)
	}
	opts := &slog.HandlerOptions{Level: lvl}
	switch strings.ToLower(format) {
	case "text":
		return slog.New(slog.NewTextHandler(w, opts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(w, opts)), nil
	default:
		return nil, fmt.Errorf("unknown -log-format %q (want text or json)", format)
	}
}

// ParseAddrs parses an "id=url,id=url" flag value named name into shard
// addresses, in order, dropping blank entries and a url's trailing slash.
// A malformed entry or a repeated id is an error, and so is an empty spec
// when required.
func ParseAddrs(name, spec string, required bool) ([]cluster.ShardAddr, error) {
	var addrs []cluster.ShardAddr
	seen := map[string]bool{}
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		id, url, ok := strings.Cut(part, "=")
		if !ok || id == "" || url == "" {
			return nil, fmt.Errorf("%s entry %q is not id=url", name, part)
		}
		if seen[id] {
			return nil, fmt.Errorf("%s lists shard %q twice", name, id)
		}
		seen[id] = true
		addrs = append(addrs, cluster.ShardAddr{ID: id, URL: strings.TrimSuffix(url, "/")})
	}
	if required && len(addrs) == 0 {
		return nil, fmt.Errorf("%s is required (id=url,...)", name)
	}
	return addrs, nil
}

// Config is what a binary hands Start besides its flags.
type Config struct {
	// Logger receives the process's diagnostics.
	Logger *slog.Logger
	// Registry is what the OTLP exporter ships and the SLO engine reads.
	Registry *telemetry.Registry
	// Resource adds OTLP resource attributes beside service.name and
	// service.version.
	Resource map[string]string
	// EventLog opens the wide-event log when its Path is set; MaxBytes
	// comes from -event-log-max-mb and Registry from the field above.
	EventLog eventlog.Config
	// AvailabilityTotal and AvailabilityErrors name the counter pair of
	// the 99.9% availability objective. With AvailabilityTotal empty no
	// SLO engine runs; with it, -slo-latency-threshold adds the 99%
	// latency objective over sigrec_recover_duration_microseconds.
	AvailabilityTotal, AvailabilityErrors string
	// Debug is what -debug-addr serves beyond the tracer, event log and
	// SLO state Start fills in; Trace backs its /debug/trace/{id}.
	Debug server.DebugOptions
	Trace server.TraceOptions
}

// Process is a running operator surface. Its Tracer, Events and SLO are
// nil when their flags turn them off.
type Process struct {
	Tracer *obs.Tracer
	Events *eventlog.Writer
	SLO    *slo.Evaluator

	logger   *slog.Logger
	exporter *otlp.Exporter
	debug    *http.Server
}

// Start opens the event log, then starts the OTLP exporter before the
// tracer so the tracer's sink can point at it, then the SLO engine and
// the debug listener. Span export rides on tracing: -trace-slowest 0
// turns off the flight recorder and span export, while metrics still ship.
func Start(f *Flags, cfg Config) (*Process, error) {
	p := &Process{logger: cfg.Logger}
	if cfg.EventLog.Path != "" {
		cfg.EventLog.MaxBytes = int64(f.EventLogMaxMB) << 20
		cfg.EventLog.Registry = cfg.Registry
		var err error
		if p.Events, err = eventlog.New(cfg.EventLog); err != nil {
			return nil, err
		}
	}
	if f.OTLPEndpoint != "" {
		ver, _ := obs.Version()
		res := map[string]string{"service.version": ver}
		maps.Copy(res, cfg.Resource)
		p.exporter = otlp.New(otlp.Config{
			Endpoint:    f.OTLPEndpoint,
			Interval:    f.OTLPInterval,
			ServiceName: f.ServiceName,
			Resource:    res,
			Registry:    cfg.Registry,
			Logger:      cfg.Logger,
		})
		p.exporter.Start()
	}
	if f.Slowest > 0 {
		p.Tracer = obs.New(obs.Config{Slowest: f.Slowest, Sink: p.exporter.Sink()})
	}
	if cfg.AvailabilityTotal != "" {
		p.SLO = newSLO(f.SLOLatency, cfg, p.Events)
		p.SLO.Start()
	}
	if f.DebugAddr != "" {
		cfg.Trace.Tracer = p.Tracer
		cfg.Debug.Tracer, cfg.Debug.Events, cfg.Debug.SLO = p.Tracer, p.Events, p.SLO
		cfg.Debug.Trace = server.TraceHandler(cfg.Trace)
		p.debug = &http.Server{
			Addr:              f.DebugAddr,
			Handler:           server.DebugHandler(cfg.Debug),
			ReadHeaderTimeout: 10 * time.Second,
		}
		go func() {
			if err := p.debug.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				p.logger.Error("debug listener failed", "err", err)
			}
		}()
	}
	return p, nil
}

// newSLO builds the burn-rate engine: availability over the caller's
// counter pair and, when latency is positive, a latency objective over the
// recovery histogram, both evaluated on the multi-window rules. Alert
// transitions land in events.
func newSLO(latency time.Duration, cfg Config, events *eventlog.Writer) *slo.Evaluator {
	reg := cfg.Registry
	objectives := []slo.Objective{{
		Name:   "availability",
		Target: 0.999,
		Source: slo.CounterSource{
			Total:  reg.Counter(cfg.AvailabilityTotal),
			Errors: reg.Counter(cfg.AvailabilityErrors),
		},
	}}
	if latency > 0 {
		objectives = append(objectives, slo.Objective{
			Name:   fmt.Sprintf("latency_p99_%s", latency),
			Target: 0.99,
			Source: slo.LatencySource{
				Histogram:   reg.Histogram("sigrec_recover_duration_microseconds"),
				ThresholdUS: float64(latency.Microseconds()),
			},
		})
	}
	return slo.New(slo.Config{Objectives: objectives, Registry: reg, Events: events})
}

// Close drains the surface after the binary's own work has stopped: the
// debug listener, then the SLO engine, then the export queue (so the
// collector sees the final spans and counter values), then the flight
// recorder's retained traces — which would die with the process — as a
// "flight_recorder" aux record in the event log, or on stderr without
// one, and last the event log itself (drain, flush, fsync). Failures are
// logged; ctx bounds the listener shutdown and the export flush.
func (p *Process) Close(ctx context.Context) {
	if p.debug != nil {
		_ = p.debug.Shutdown(ctx)
	}
	if p.SLO != nil {
		p.SLO.Close()
	}
	if p.exporter != nil {
		if err := p.exporter.Close(ctx); err != nil {
			p.logger.Warn("otlp exporter close timed out", "err", err)
		}
	}
	if snap := p.Tracer.Recorder().Snapshot(); len(snap.Slowest) > 0 || len(snap.Truncated) > 0 {
		if p.Events != nil {
			if seq := p.Events.EmitAux("flight_recorder", snap); seq == 0 {
				p.logger.Warn("flight-recorder dump dropped (event log closed or queue full)")
			}
		} else if err := json.NewEncoder(os.Stderr).Encode(map[string]any{"kind": "flight_recorder", "data": snap}); err != nil {
			p.logger.Warn("flight-recorder dump failed", "err", err)
		}
	}
	if p.Events != nil {
		if err := p.Events.Close(); err != nil {
			p.logger.Error("event log close failed", "err", err)
		}
	}
}
