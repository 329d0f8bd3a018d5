package scan

import (
	"context"
	"strings"
	"testing"

	"sigrec/internal/obs"
	"sigrec/internal/telemetry"
)

// TestScanMetricsLint drives a real backfill so every scan family has
// samples, then holds the whole shared exposition — core, server, scan,
// and the new stage gauges together — to the strict linter with HELP
// text present on each sigrec_scan_* family.
func TestScanMetricsLint(t *testing.T) {
	const blocks = 6
	fx := newScanFixture(t, 33, blocks)
	tracer := obs.New(obs.Config{})
	s := fx.scanner(t, func(c *Config) {
		c.EndBlock = blocks - 1
		c.Tracer = tracer
	})
	if err := s.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if _, err := tel.WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, fam := range []string{
		"sigrec_scan_blocks_ingested_total",
		"sigrec_scan_work_queue_depth",
		"sigrec_scan_stage_inflight",
		"sigrec_scan_queue_wait_microseconds",
		"sigrec_scan_head_lag_blocks",
	} {
		if !strings.Contains(out, "# HELP "+fam+" ") {
			t.Errorf("exposition missing HELP for %s", fam)
		}
	}
	// The stage gauges must be quiescent (all stages drained) after Run.
	snap := tel.Snapshot()
	for stage, v := range snap.LabeledGauges["sigrec_scan_stage_inflight"].Values {
		if v != 0 {
			t.Errorf("stage %s inflight = %d after drain, want 0", stage, v)
		}
	}
	if snap.Histograms["sigrec_scan_queue_wait_microseconds"].Count == 0 {
		t.Error("queue-wait histogram saw no observations")
	}
	if errs := telemetry.Lint(out); len(errs) != 0 {
		t.Errorf("scan exposition fails lint: %v", errs)
	}
}

// TestScanSpanAttrs verifies the per-deployment span tree carries the
// chain coordinates and queue-wait the flight recorder needs to make a
// slow deployment attributable.
func TestScanSpanAttrs(t *testing.T) {
	const blocks = 4
	fx := newScanFixture(t, 34, blocks)
	tracer := obs.New(obs.Config{Slowest: 64})
	s := fx.scanner(t, func(c *Config) {
		c.EndBlock = blocks - 1
		c.Tracer = tracer
	})
	if err := s.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	recs := tracer.Recorder().Snapshot()
	if len(recs.Slowest) == 0 {
		t.Fatal("flight recorder empty after a traced backfill")
	}
	for _, r := range recs.Slowest {
		if !strings.HasPrefix(r.RequestID, "scan-b") {
			t.Errorf("record id %q not a scan deployment", r.RequestID)
		}
		attrs := map[string]bool{}
		for _, a := range r.Root.Attrs {
			attrs[a.Key] = true
		}
		for _, want := range []string{"block", "tx", "queue_wait_us"} {
			if !attrs[want] {
				t.Errorf("record %s root missing attr %q (has %v)", r.RequestID, want, r.Root.Attrs)
			}
		}
		spans := map[string]bool{}
		for _, c := range r.Root.Children {
			spans[c.Name] = true
		}
		if !spans["scan.resolve"] || !spans["scan.publish"] {
			t.Errorf("record %s missing stage spans: %v", r.RequestID, spans)
		}
	}
}
