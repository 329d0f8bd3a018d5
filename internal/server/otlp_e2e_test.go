package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"sigrec/internal/core"
	"sigrec/internal/obs"
	"sigrec/internal/otlp"
	"sigrec/internal/slo"
)

// otlpCollector is an in-process OTLP/HTTP collector: it accepts the
// JSON bodies a real collector would and retains what the exporter
// shipped, so the e2e test can reconcile exported telemetry against the
// server's own accounting exactly.
type otlpCollector struct {
	srv *httptest.Server

	mu            sync.Mutex
	spans         []collectedSpan
	resourceAttrs map[string]string
	lastMetrics   map[string][]metricPoint // name -> datapoints of the newest payload
}

type collectedSpan struct {
	TraceID      string
	SpanID       string
	ParentSpanID string
	Name         string
	Attrs        map[string]string
}

type metricPoint struct {
	Attrs    map[string]string
	AsInt    string
	AsDouble *float64
}

// wire-shape mirrors of the OTLP JSON bodies, decode-only.
type colAttr struct {
	Key   string `json:"key"`
	Value struct {
		StringValue *string  `json:"stringValue"`
		IntValue    *string  `json:"intValue"`
		BoolValue   *bool    `json:"boolValue"`
		DoubleValue *float64 `json:"doubleValue"`
	} `json:"value"`
}

func attrMap(attrs []colAttr) map[string]string {
	m := make(map[string]string, len(attrs))
	for _, a := range attrs {
		switch {
		case a.Value.StringValue != nil:
			m[a.Key] = *a.Value.StringValue
		case a.Value.IntValue != nil:
			m[a.Key] = *a.Value.IntValue
		case a.Value.BoolValue != nil:
			m[a.Key] = fmt.Sprint(*a.Value.BoolValue)
		case a.Value.DoubleValue != nil:
			m[a.Key] = fmt.Sprint(*a.Value.DoubleValue)
		}
	}
	return m
}

func newOTLPCollector(t *testing.T) *otlpCollector {
	t.Helper()
	c := &otlpCollector{
		resourceAttrs: map[string]string{},
		lastMetrics:   map[string][]metricPoint{},
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/traces", c.handleTraces)
	mux.HandleFunc("POST /v1/metrics", c.handleMetrics)
	c.srv = httptest.NewServer(mux)
	t.Cleanup(c.srv.Close)
	return c
}

func (c *otlpCollector) handleTraces(w http.ResponseWriter, r *http.Request) {
	var req struct {
		ResourceSpans []struct {
			Resource struct {
				Attributes []colAttr `json:"attributes"`
			} `json:"resource"`
			ScopeSpans []struct {
				Spans []struct {
					TraceID      string    `json:"traceId"`
					SpanID       string    `json:"spanId"`
					ParentSpanID string    `json:"parentSpanId"`
					Name         string    `json:"name"`
					Attributes   []colAttr `json:"attributes"`
				} `json:"spans"`
			} `json:"scopeSpans"`
		} `json:"resourceSpans"`
	}
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, rs := range req.ResourceSpans {
		for k, v := range attrMap(rs.Resource.Attributes) {
			c.resourceAttrs[k] = v
		}
		for _, ss := range rs.ScopeSpans {
			for _, s := range ss.Spans {
				c.spans = append(c.spans, collectedSpan{
					TraceID:      s.TraceID,
					SpanID:       s.SpanID,
					ParentSpanID: s.ParentSpanID,
					Name:         s.Name,
					Attrs:        attrMap(s.Attributes),
				})
			}
		}
	}
	w.WriteHeader(http.StatusOK)
}

func (c *otlpCollector) handleMetrics(w http.ResponseWriter, r *http.Request) {
	type dataPoint struct {
		Attributes []colAttr `json:"attributes"`
		AsInt      string    `json:"asInt"`
		AsDouble   *float64  `json:"asDouble"`
	}
	var req struct {
		ResourceMetrics []struct {
			ScopeMetrics []struct {
				Metrics []struct {
					Name  string `json:"name"`
					Sum   *struct{ DataPoints []dataPoint }
					Gauge *struct{ DataPoints []dataPoint }
				} `json:"metrics"`
			} `json:"scopeMetrics"`
		} `json:"resourceMetrics"`
	}
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.lastMetrics = map[string][]metricPoint{}
	for _, rm := range req.ResourceMetrics {
		for _, sm := range rm.ScopeMetrics {
			for _, m := range sm.Metrics {
				var pts []dataPoint
				if m.Sum != nil {
					pts = m.Sum.DataPoints
				} else if m.Gauge != nil {
					pts = m.Gauge.DataPoints
				}
				for _, p := range pts {
					c.lastMetrics[m.Name] = append(c.lastMetrics[m.Name], metricPoint{
						Attrs:    attrMap(p.Attributes),
						AsInt:    p.AsInt,
						AsDouble: p.AsDouble,
					})
				}
			}
		}
	}
	w.WriteHeader(http.StatusOK)
}

func (c *otlpCollector) snapshot() ([]collectedSpan, map[string]string, map[string][]metricPoint) {
	c.mu.Lock()
	defer c.mu.Unlock()
	spans := append([]collectedSpan(nil), c.spans...)
	res := make(map[string]string, len(c.resourceAttrs))
	for k, v := range c.resourceAttrs {
		res[k] = v
	}
	metrics := make(map[string][]metricPoint, len(c.lastMetrics))
	for k, v := range c.lastMetrics {
		metrics[k] = v
	}
	return spans, res, metrics
}

// TestObsOTLPExportE2E drives a live sigrecd serving stack — tracer sink
// -> exporter -> in-process OTLP collector — under real recovery load and
// reconciles the exported telemetry exactly:
//
//   - exported root spans == flight-recorder recovery count == the
//     sigrec_recoveries_total delta (every recovery exported, none
//     duplicated, none invented),
//   - batch items share one trace as sibling roots,
//   - phase spans parent correctly under their roots,
//   - resource attributes carry the service identity, and
//   - the final metrics snapshot agrees with the collector's own span
//     tally and the live registry.
//
// On failure the live /debug/slo state is written into OBS_E2E_ARTIFACTS
// (when set) so CI uploads the burn-rate engine's view of the run.
func TestObsOTLPExportE2E(t *testing.T) {
	col := newOTLPCollector(t)
	reg := core.Metrics()
	base := reg.Counter("sigrec_recoveries_total").Load()
	spansExportedBase := reg.Counter("sigrec_otlp_spans_exported_total").Load()

	exp := otlp.New(otlp.Config{
		Endpoint:    col.srv.URL,
		Interval:    time.Hour, // flush on Close only: deterministic delivery
		ServiceName: "sigrecd-e2e",
		Resource:    map[string]string{"sigrec.shard": "e2e-0", "service.version": "test"},
		Registry:    reg,
	})
	tracer := obs.New(obs.Config{Slowest: 64, Sink: exp.Sink()})
	sloEval := slo.New(slo.Config{
		Objectives: []slo.Objective{{
			Name:   "availability",
			Target: 0.999,
			Source: slo.CounterSource{
				Total:  reg.Counter("sigrecd_recover_requests_total"),
				Errors: reg.Counter("sigrecd_recover_errors_total"),
			},
		}},
		Registry: reg,
	})
	_, ts := newTestServer(t, Config{Tracer: tracer, SLO: sloEval})
	defer func() {
		if !t.Failed() {
			return
		}
		if dir := os.Getenv("OBS_E2E_ARTIFACTS"); dir != "" {
			resp, err := http.Get(ts.URL + "/debug/slo")
			if err != nil {
				t.Logf("artifact: /debug/slo fetch failed: %v", err)
				return
			}
			defer resp.Body.Close()
			var state json.RawMessage
			if err := json.NewDecoder(resp.Body).Decode(&state); err != nil {
				t.Logf("artifact: /debug/slo decode failed: %v", err)
				return
			}
			if err := os.MkdirAll(dir, 0o755); err != nil {
				t.Logf("artifact: mkdir failed: %v", err)
				return
			}
			path := filepath.Join(dir, "slo-state.json")
			if err := os.WriteFile(path, state, 0o644); err != nil {
				t.Logf("artifact: write failed: %v", err)
			} else {
				t.Logf("artifact: wrote %s", path)
			}
		}
	}()
	// The exporter stays unstarted while load is driven: finished
	// recoveries accumulate in its bounded queue (visible through the
	// queue-depth gauge), and Start+Close afterwards ships everything in
	// one deterministic flush — no timing dependence on the flush loop.

	// 10 unique single recoveries: unique bytecode defeats the result
	// cache and the coalescer, so each POST is exactly one recovery.
	singles := []string{
		"f(address)", "f(uint8)", "f(uint16)", "f(uint32)", "f(uint64)",
		"f(bool)", "f(bytes4)", "f(bytes8)", "f(uint128)", "f(int8)",
	}
	for _, sig := range singles {
		code, _ := compileSig(t, sig)
		resp, _ := post(t, ts.URL+"/v1/recover", fmt.Sprintf("%x", code))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("recover %s status = %d", sig, resp.StatusCode)
		}
	}
	// One 2-item batch under a fixed request id: both items must export as
	// sibling roots of one shared trace.
	ba, _ := compileSig(t, "f(int16)")
	bb, _ := compileSig(t, "f(int32)")
	req, err := http.NewRequest("POST", ts.URL+"/v1/recover/batch",
		strings.NewReader(fmt.Sprintf("%x\n%x\n", ba, bb)))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Request-Id", "otlp-batch-e2e")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	// Read the whole stream before closing: the response starts with the
	// first finished item, and closing the body then cancels the request,
	// so an item not yet admitted would be skipped, never recovered.
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status = %d", resp.StatusCode)
	}
	const wantRecoveries = 12 // 10 singles + 2 batch items

	// The sink enqueues on the handler goroutine right after the flight
	// recorder sees the record; wait until all twelve sit in the queue,
	// then run the export loop through its drain path.
	waitFor(t, "all recoveries enqueued", func() bool {
		return reg.Snapshot().Gauges["sigrec_otlp_queue_depth"] == wantRecoveries
	})
	exp.Start()
	cctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := exp.Close(cctx); err != nil {
		t.Fatalf("exporter close: %v", err)
	}

	spans, resAttrs, metrics := col.snapshot()

	// --- reconciliation: roots == flight recorder == counter delta ---
	var roots []collectedSpan
	byID := map[string]collectedSpan{}
	for _, s := range spans {
		byID[s.SpanID] = s
		if s.Name == "recovery" && s.ParentSpanID == "" {
			roots = append(roots, s)
		}
	}
	frRecoveries := tracer.Recorder().Snapshot().Recoveries
	counterDelta := reg.Counter("sigrec_recoveries_total").Load() - base
	if uint64(len(roots)) != frRecoveries || counterDelta != frRecoveries {
		t.Fatalf("reconciliation broken: exported roots = %d, flight recorder = %d, counter delta = %d",
			len(roots), frRecoveries, counterDelta)
	}
	if frRecoveries != wantRecoveries {
		t.Fatalf("recoveries = %d, want %d", frRecoveries, wantRecoveries)
	}
	if uint64(len(spans)) == frRecoveries {
		t.Fatal("only root spans exported: phase children missing")
	}

	// --- batch items: one trace, sibling roots, distinct span ids ---
	var batchRoots []collectedSpan
	for _, r := range roots {
		if r.Attrs["sigrec.request_id"] == "otlp-batch-e2e" {
			batchRoots = append(batchRoots, r)
		}
	}
	if len(batchRoots) != 2 {
		t.Fatalf("batch roots = %d, want 2", len(batchRoots))
	}
	if batchRoots[0].TraceID != batchRoots[1].TraceID {
		t.Errorf("batch items split traces: %s vs %s", batchRoots[0].TraceID, batchRoots[1].TraceID)
	}
	if batchRoots[0].SpanID == batchRoots[1].SpanID {
		t.Errorf("batch items share a span id %s", batchRoots[0].SpanID)
	}

	// --- child spans parent inside their own trace ---
	for _, s := range spans {
		if s.ParentSpanID == "" {
			continue
		}
		parent, ok := byID[s.ParentSpanID]
		if !ok {
			t.Fatalf("span %s (%s) has unexported parent %s", s.SpanID, s.Name, s.ParentSpanID)
		}
		if parent.TraceID != s.TraceID {
			t.Fatalf("span %s crosses traces: %s vs parent %s", s.Name, s.TraceID, parent.TraceID)
		}
	}

	// --- resource identity ---
	if resAttrs["service.name"] != "sigrecd-e2e" || resAttrs["sigrec.shard"] != "e2e-0" {
		t.Errorf("resource attributes = %v", resAttrs)
	}

	// --- final metrics snapshot agrees with the collector and registry ---
	wantSpans := fmt.Sprint(reg.Counter("sigrec_otlp_spans_exported_total").Load())
	if pts := metrics["sigrec_otlp_spans_exported_total"]; len(pts) != 1 || pts[0].AsInt != wantSpans {
		t.Errorf("final export's sigrec_otlp_spans_exported_total = %+v, want %s", pts, wantSpans)
	}
	shipped := reg.Counter("sigrec_otlp_spans_exported_total").Load() - spansExportedBase
	if shipped != uint64(len(spans)) {
		t.Errorf("spans-exported counter delta = %d, collector holds %d spans", shipped, len(spans))
	}
	if pts := metrics["sigrec_recoveries_total"]; len(pts) != 1 ||
		pts[0].AsInt != fmt.Sprint(reg.Counter("sigrec_recoveries_total").Load()) {
		t.Errorf("final export's sigrec_recoveries_total = %+v, registry holds %d",
			pts, reg.Counter("sigrec_recoveries_total").Load())
	}
	for _, reason := range []string{"queue_full", "send_failed"} {
		if pts := metrics["sigrec_otlp_dropped_total"]; len(pts) != 0 {
			for _, p := range pts {
				if p.Attrs["reason"] == reason && p.AsInt != "0" {
					t.Errorf("exporter dropped records (%s = %s) on a healthy collector", reason, p.AsInt)
				}
			}
		}
	}

	// --- the SLO engine saw the load and serves its state live ---
	sloEval.Tick()
	sresp, err := http.Get(ts.URL + "/debug/slo")
	if err != nil {
		t.Fatal(err)
	}
	var sloState sloResponse
	err = json.NewDecoder(sresp.Body).Decode(&sloState)
	sresp.Body.Close()
	if err != nil || sresp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/slo = %d err %v", sresp.StatusCode, err)
	}
	if len(sloState.Objectives) != 1 || sloState.Objectives[0].Name != "availability" {
		t.Fatalf("/debug/slo objectives = %+v", sloState.Objectives)
	}
	// The availability SLI counts /v1/recover requests; the batch rode a
	// different endpoint, so only the singles appear.
	if got := sloState.Objectives[0].CumulativeTotal; got < float64(len(singles)) {
		t.Errorf("SLO cumulative total = %v, want >= %d requests", got, len(singles))
	}
}
