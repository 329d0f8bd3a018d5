package server

import (
	"crypto/rand"
	"encoding/hex"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"strconv"
	"time"

	"sigrec/internal/eventlog"
	"sigrec/internal/obs"
	"sigrec/internal/slo"
	"sigrec/internal/telemetry"
)

// maxRequestIDLen caps client-supplied X-Request-Id values so a hostile
// header cannot bloat logs or flight-recorder entries.
const maxRequestIDLen = 128

// ensureRequestID resolves the request's ID — the client's X-Request-Id
// when present (sanitized), a fresh random one otherwise — and echoes it
// on the response so callers can join logs, traces, and flight-recorder
// entries on one value.
func ensureRequestID(w http.ResponseWriter, r *http.Request) string {
	id := sanitizeRequestID(r.Header.Get("X-Request-Id"))
	if id == "" {
		id = newRequestID()
	}
	w.Header().Set("X-Request-Id", id)
	return id
}

// EnsureRequestIDString applies the same request-id policy as the serving
// path to a bare header value: sanitize the client's id, or mint a fresh
// random one when it is empty or unsafe. Exported for the cluster router,
// so router-assigned base ids obey identical rules to shard-assigned ones.
func EnsureRequestIDString(id string) string {
	id = sanitizeRequestID(id)
	if id == "" {
		id = newRequestID()
	}
	return id
}

// sanitizeRequestID keeps printable ASCII and truncates; anything else
// (header injection, control bytes) is dropped so the ID is safe to log.
func sanitizeRequestID(id string) string {
	if len(id) > maxRequestIDLen {
		id = id[:maxRequestIDLen]
	}
	for i := 0; i < len(id); i++ {
		if id[i] < 0x20 || id[i] > 0x7e {
			return ""
		}
	}
	return id
}

// extractTraceContext reads the inbound W3C trace context under the same
// policy as X-Request-Id sanitization: a malformed traceparent yields the
// zero SpanContext (the recovery starts a fresh trace root), never an
// error. Every disposition is metered into sigrec_trace_context_total.
func extractTraceContext(r *http.Request) obs.SpanContext {
	sc, result := obs.Extract(r.Header)
	mTraceContext.With(result).Inc()
	return sc
}

// newRequestID returns 16 random hex characters.
func newRequestID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand never fails on supported platforms; degrade to a
		// constant rather than panic in the serving path.
		return "00000000ffffffff"
	}
	return hex.EncodeToString(b[:])
}

// logRequest emits one structured access-log line carrying the request ID
// that also appears on the response header, in the span tree, and in the
// flight recorder. No-op when the server has no logger.
func (s *Server) logRequest(r *http.Request, requestID string, status int, start time.Time, attrs ...slog.Attr) {
	if s.cfg.Logger == nil {
		return
	}
	base := []slog.Attr{
		slog.String("method", r.Method),
		slog.String("path", r.URL.Path),
		slog.Int("status", status),
		slog.Int64("duration_us", time.Since(start).Microseconds()),
		slog.String("request_id", requestID),
	}
	level := slog.LevelInfo
	if status >= 500 {
		level = slog.LevelError
	}
	s.cfg.Logger.LogAttrs(r.Context(), level, "request", append(base, attrs...)...)
}

// --- GET /debug/slowest ---

// handleSlowest serves the flight recorder: the span trees of the slowest
// and the budget-truncated recoveries, JSON-encoded.
func (s *Server) handleSlowest(w http.ResponseWriter, r *http.Request) {
	serveSlowest(w, s.cfg.Tracer)
}

func serveSlowest(w http.ResponseWriter, tracer *obs.Tracer) {
	if tracer == nil {
		writeError(w, http.StatusNotFound, "tracing disabled (start with -trace-slowest > 0)")
		return
	}
	writeJSON(w, http.StatusOK, tracer.Recorder().Snapshot())
}

// --- GET /debug/events ---

// defaultEventTail is how many recent wide events /debug/events returns
// when the request carries no n parameter.
const defaultEventTail = 50

// handleEvents tails the wide-event log: the most recent NDJSON lines,
// newest last, straight from the writer's in-memory ring (no disk read).
// ?n= bounds the line count.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	serveEventTail(w, r, s.cfg.EventLog)
}

func serveEventTail(w http.ResponseWriter, r *http.Request, log *eventlog.Writer) {
	if log == nil {
		writeError(w, http.StatusNotFound, "event log disabled (start the server with -event-log)")
		return
	}
	n := defaultEventTail
	if q := r.URL.Query().Get("n"); q != "" {
		v, err := strconv.Atoi(q)
		if err != nil || v <= 0 {
			writeError(w, http.StatusBadRequest, "n must be a positive integer")
			return
		}
		n = v
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	for _, line := range log.Tail(n) {
		_, _ = w.Write(line)
	}
}

// --- GET /debug/slo ---

// sloResponse is the /debug/slo body.
type sloResponse struct {
	Objectives []slo.ObjectiveState `json:"objectives"`
}

// handleSLO serves the burn-rate engine's full state: per-objective
// cumulative SLI position, every window's burn rate against its
// threshold, and the alert flags.
func (s *Server) handleSLO(w http.ResponseWriter, r *http.Request) {
	serveSLO(w, s.cfg.SLO)
}

func serveSLO(w http.ResponseWriter, ev *slo.Evaluator) {
	if ev == nil {
		writeError(w, http.StatusNotFound, "SLO engine disabled (start the server with objectives)")
		return
	}
	writeJSON(w, http.StatusOK, sloResponse{Objectives: ev.State()})
}

// DebugOptions selects what a debug mux serves. Every field is optional:
// an absent subsystem's endpoint answers 404 (pprof is always mounted).
type DebugOptions struct {
	// Tracer backs /debug/slowest.
	Tracer *obs.Tracer
	// Events backs /debug/events.
	Events *eventlog.Writer
	// SLO backs /debug/slo.
	SLO *slo.Evaluator
	// Metrics, when non-nil, mounts /metrics — for binaries (sigrec-scan)
	// whose debug listener is their only HTTP surface. sigrecd leaves it
	// nil; its service port already serves the exposition.
	Metrics *telemetry.Registry
	// Health, when non-nil, mounts /healthz returning its value as JSON
	// (200 always — a process answering at all is alive).
	Health func() any
	// Trace, when non-nil, mounts GET /debug/trace/{id} (see TraceHandler)
	// so the debug listener serves stitched cross-process traces.
	Trace http.Handler
}

// DebugHandler returns the diagnostics mux served on -debug-addr: the
// net/http/pprof endpoints plus whichever observability surfaces the
// options carry. It is separate from the main handler so profiling can
// stay off the service port, and shared by sigrecd and sigrec-scan so
// both binaries expose the same operator surface.
func DebugHandler(opts DebugOptions) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/debug/slowest", func(w http.ResponseWriter, r *http.Request) {
		serveSlowest(w, opts.Tracer)
	})
	mux.HandleFunc("/debug/events", func(w http.ResponseWriter, r *http.Request) {
		serveEventTail(w, r, opts.Events)
	})
	mux.HandleFunc("/debug/slo", func(w http.ResponseWriter, r *http.Request) {
		serveSLO(w, opts.SLO)
	})
	if opts.Trace != nil {
		mux.Handle("GET /debug/trace/{id}", opts.Trace)
	}
	if opts.Metrics != nil {
		mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
			_, _ = opts.Metrics.Snapshot().WriteTo(w)
		})
	}
	if opts.Health != nil {
		mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
			writeJSON(w, http.StatusOK, opts.Health())
		})
	}
	return mux
}
