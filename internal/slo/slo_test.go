package slo

import (
	"encoding/json"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"sigrec/internal/eventlog"
	"sigrec/internal/telemetry"
)

// fakeClock steps a deterministic clock.
type fakeClock struct{ t time.Time }

func (c *fakeClock) Now() time.Time          { return c.t }
func (c *fakeClock) Advance(d time.Duration) { c.t = c.t.Add(d) }

// driveTicks advances the clock and ticks, interval seconds apart.
func driveTicks(e *Evaluator, c *fakeClock, n int, interval time.Duration) {
	for i := 0; i < n; i++ {
		c.Advance(interval)
		e.Tick()
	}
}

func TestBurnRateFiresAndClears(t *testing.T) {
	reg := telemetry.NewRegistry()
	total := reg.Counter("req_total")
	errs := reg.Counter("req_errors_total")
	clock := &fakeClock{t: time.Unix(1700000000, 0)}
	const interval = 10 * time.Second
	ev := New(Config{
		Objectives: []Objective{{
			Name:   "availability",
			Target: 0.999,
			Source: CounterSource{Total: total, Errors: errs},
		}},
		Interval: interval,
		Registry: reg,
		Now:      clock.Now,
	})

	// A healthy hour: traffic with zero errors fills both windows.
	for i := 0; i < 360; i++ {
		total.Add(100)
		clock.Advance(interval)
		ev.Tick()
	}
	snap := reg.Snapshot()
	if got := snap.LabeledGauges["sigrec_slo_alert_firing"].Values["availability:page"]; got != 0 {
		t.Fatalf("page firing on a healthy service")
	}
	if got := snap.LabeledFloatGauges["sigrec_slo_burn_rate"].Values["availability:5m"]; got != 0 {
		t.Fatalf("burn(5m) = %v on a healthy service", got)
	}
	if got := snap.LabeledFloatGauges["sigrec_slo_error_budget_remaining_ratio"].Values["availability"]; got != 1 {
		t.Fatalf("budget remaining = %v, want 1", got)
	}

	// Outage: 10% of requests fail. With a 0.1% budget that is a burn
	// rate of 100x — far past the 14.4x page threshold. The 5m window
	// sees it within minutes; the 1h window's rate crosses 14.4x once
	// ~15% of the hour is errored (0.1*f > 0.0144 → f > 14.4%), so the
	// page must fire by ~10 minutes in.
	fired := -1
	for i := 0; i < 60; i++ {
		total.Add(100)
		errs.Add(10)
		clock.Advance(interval)
		ev.Tick()
		s := reg.Snapshot()
		if s.LabeledGauges["sigrec_slo_alert_firing"].Values["availability:page"] == 1 {
			fired = i
			break
		}
	}
	if fired < 0 {
		t.Fatal("page never fired during a 100x burn")
	}
	if fired > 5*6+54 { // sanity ceiling: within the first 9 minutes
		t.Fatalf("page fired only after %d ticks", fired)
	}
	snap = reg.Snapshot()
	if got := snap.Counters["sigrec_slo_alert_transitions_total"]; got != 0 {
		// transitions is a CounterVec, not a plain counter — guard below.
		t.Fatalf("unexpected plain counter: %d", got)
	}
	// Both severities trip during a 100x burn: the ticket pair's slower
	// windows cross their 6x threshold before the page pair's 1h window
	// crosses 14.4x.
	if got := snap.LabeledCounters["sigrec_slo_alert_transitions_total"].Values["firing"]; got != 2 {
		t.Fatalf("firing transitions = %d, want 2 (page + ticket)", got)
	}
	burn5m := snap.LabeledFloatGauges["sigrec_slo_burn_rate"].Values["availability:5m"]
	if burn5m < 90 || burn5m > 110 {
		t.Errorf("burn(5m) = %v, want ~100", burn5m)
	}

	// Recovery: errors stop. The 5m window must clear the page within
	// ~5 minutes even though the 1h window still remembers the outage —
	// the AND condition is what gives the fast reset.
	cleared := -1
	for i := 0; i < 60; i++ {
		total.Add(100)
		clock.Advance(interval)
		ev.Tick()
		s := reg.Snapshot()
		if s.LabeledGauges["sigrec_slo_alert_firing"].Values["availability:page"] == 0 {
			cleared = i
			break
		}
	}
	if cleared < 0 {
		t.Fatal("page never cleared after recovery")
	}
	if cleared > 5*6+1 {
		t.Fatalf("page cleared only after %d ticks (> 5m window)", cleared)
	}
	snap = reg.Snapshot()
	// Only the page resolved so far — the ticket's 30m/6h windows still
	// remember the outage.
	if got := snap.LabeledCounters["sigrec_slo_alert_transitions_total"].Values["resolved"]; got != 1 {
		t.Fatalf("resolved transitions = %d, want 1 (page only)", got)
	}
	if got := snap.LabeledGauges["sigrec_slo_alert_firing"].Values["availability:ticket"]; got != 1 {
		t.Errorf("ticket should still be firing right after the page clears")
	}
	if got := snap.LabeledFloatGauges["sigrec_slo_error_budget_remaining_ratio"].Values["availability"]; got >= 0 {
		t.Errorf("budget remaining = %v after a 10%% outage, want negative (overspent)", got)
	}
}

func TestSlowWindowTickets(t *testing.T) {
	reg := telemetry.NewRegistry()
	total := reg.Counter("t")
	errs := reg.Counter("e")
	clock := &fakeClock{t: time.Unix(1700000000, 0)}
	const interval = time.Minute
	ev := New(Config{
		Objectives: []Objective{{Name: "avail", Target: 0.999,
			Source: CounterSource{Total: total, Errors: errs}}},
		Interval: interval,
		Registry: reg,
		Now:      clock.Now,
	})
	// A slow leak: 0.8% errors — an 8x burn. Above the 6x ticket
	// threshold, below the 14.4x page threshold. After 6h both slow
	// windows are saturated: ticket fires, page must not.
	for i := 0; i < 6*60; i++ {
		total.Add(1000)
		errs.Add(8)
		clock.Advance(interval)
		ev.Tick()
	}
	snap := reg.Snapshot()
	firing := snap.LabeledGauges["sigrec_slo_alert_firing"].Values
	if firing["avail:ticket"] != 1 {
		t.Errorf("ticket not firing on a sustained 8x burn: %v", firing)
	}
	if firing["avail:page"] != 0 {
		t.Errorf("page firing on an 8x burn (threshold 14.4): %v", firing)
	}
}

// TestLatencySource feeds a fast run and then a slow burst into the
// histogram-backed source: good must never decrease (the SLO contract the
// window differencing relies on), and the window over the burst must read
// every slow request as bad, no more and no less. A threshold on a bucket
// bound counts exactly.
func TestLatencySource(t *testing.T) {
	reg := telemetry.NewRegistry()
	h := reg.Histogram("lat_us")
	src := LatencySource{Histogram: h, ThresholdUS: 10_000}
	clock := &fakeClock{t: time.Unix(1700000000, 0)}
	const interval = 10 * time.Second
	ev := New(Config{
		Objectives: []Objective{{Name: "latency", Target: 0.99, Source: src}},
		Interval:   interval,
		Registry:   reg,
		Now:        clock.Now,
	})
	for i := 0; i < 10_000; i++ {
		h.Observe(100)
	}
	clock.Advance(interval)
	ev.Tick()
	for i := 0; i < 200; i++ {
		h.Observe(50_000)
	}
	clock.Advance(interval)
	ev.Tick()
	ring := ev.objs[0].ring
	if ring[0].good != 10_000 || ring[0].total != 10_000 {
		t.Fatalf("after the fast run: good/total = %v/%v, want 10000/10000", ring[0].good, ring[0].total)
	}
	if ring[1].good != 10_000 || ring[1].total != 10_200 {
		t.Fatalf("after the slow burst: good/total = %v/%v, want 10000/10200", ring[1].good, ring[1].total)
	}
	if bad, ok := ev.objs[0].rateOver(clock.Now(), interval); !ok || bad != 1 {
		t.Fatalf("bad fraction over the burst = %v (ok %v), want exactly 1", bad, ok)
	}

	// Exact at a bucket bound, inclusive: an observation equal to the
	// threshold is good, one microsecond past it is bad.
	edge := reg.Histogram("edge_us")
	edge.Observe(100_000)
	edge.Observe(100_000)
	edge.Observe(100_001)
	good, total := LatencySource{Histogram: edge, ThresholdUS: 100_000}.Sample()
	if good != 2 || total != 3 {
		t.Fatalf("at the bound: good/total = %v/%v, want 2/3", good, total)
	}
}

func TestStateAndLint(t *testing.T) {
	reg := telemetry.NewRegistry()
	total := reg.Counter("t")
	errs := reg.Counter("e")
	clock := &fakeClock{t: time.Unix(1700000000, 0)}
	ev := New(Config{
		Objectives: []Objective{{Name: "availability", Target: 0.99,
			Source: CounterSource{Total: total, Errors: errs}}},
		Interval: 10 * time.Second,
		Registry: reg,
		Now:      clock.Now,
	})
	total.Add(50)
	errs.Add(5)
	driveTicks(ev, clock, 3, 10*time.Second)
	states := ev.State()
	if len(states) != 1 {
		t.Fatalf("states = %d, want 1", len(states))
	}
	st := states[0]
	if st.Name != "availability" || st.Target != 0.99 {
		t.Errorf("state identity: %+v", st)
	}
	if st.CumulativeTotal != 50 || st.CumulativeGood != 45 {
		t.Errorf("cumulative = %v/%v, want 45/50", st.CumulativeGood, st.CumulativeTotal)
	}
	if len(st.Windows) != 4 {
		t.Errorf("windows = %d, want 4 (2 pairs x 2)", len(st.Windows))
	}
	if len(st.Alerts) != 2 {
		t.Errorf("alerts = %d, want 2 severities", len(st.Alerts))
	}
	// Every sigrec_slo_* family must pass the strict linter with its
	// HELP text.
	var sb strings.Builder
	if _, err := reg.WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, fam := range []string{
		"sigrec_slo_burn_rate",
		"sigrec_slo_error_budget_remaining_ratio",
		"sigrec_slo_alert_firing",
	} {
		if !strings.Contains(out, "# HELP "+fam+" ") {
			t.Errorf("exposition missing HELP for %s", fam)
		}
	}
	if err := telemetry.Lint(out); err != nil {
		t.Fatalf("slo exposition fails lint: %v", err)
	}
}

func TestNoFiringWithoutTraffic(t *testing.T) {
	reg := telemetry.NewRegistry()
	total := reg.Counter("t")
	errs := reg.Counter("e")
	clock := &fakeClock{t: time.Unix(1700000000, 0)}
	ev := New(Config{
		Objectives: []Objective{{Name: "a", Target: 0.999,
			Source: CounterSource{Total: total, Errors: errs}}},
		Interval: 10 * time.Second,
		Registry: reg,
		Now:      clock.Now,
	})
	driveTicks(ev, clock, 100, 10*time.Second)
	firing := reg.Snapshot().LabeledGauges["sigrec_slo_alert_firing"].Values
	for k, v := range firing {
		if v != 0 {
			t.Errorf("alert %s firing with zero traffic", k)
		}
	}
}

func TestAlertTransitionsEmitWideEvents(t *testing.T) {
	reg := telemetry.NewRegistry()
	log, err := eventlog.New(eventlog.Config{
		Path:     filepath.Join(t.TempDir(), "events.ndjson"),
		MaxBytes: 1 << 20,
		Registry: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	total := reg.Counter("t")
	errs := reg.Counter("e")
	clock := &fakeClock{t: time.Unix(1700000000, 0)}
	ev := New(Config{
		Objectives: []Objective{{Name: "availability", Target: 0.999,
			Source: CounterSource{Total: total, Errors: errs}}},
		Interval: 10 * time.Second,
		Registry: reg,
		Events:   log,
		Now:      clock.Now,
	})
	// Saturate both window pairs with a total outage, then recover.
	for i := 0; i < 6*360; i++ {
		total.Add(100)
		errs.Add(100)
		clock.Advance(10 * time.Second)
		ev.Tick()
	}
	for i := 0; i < 6*360; i++ {
		total.Add(100)
		clock.Advance(10 * time.Second)
		ev.Tick()
	}
	if err := log.Sync(); err != nil {
		t.Fatal(err)
	}
	var firing, resolved int
	for _, line := range log.Tail(64) {
		s := string(line)
		if !strings.Contains(s, `"kind":"slo_alert"`) {
			continue
		}
		var rec struct {
			Data AlertTransition `json:"data"`
		}
		if err := json.Unmarshal(line, &rec); err != nil {
			t.Fatalf("bad slo_alert record %q: %v", s, err)
		}
		if rec.Data.Objective != "availability" {
			t.Errorf("objective = %q", rec.Data.Objective)
		}
		switch rec.Data.State {
		case "firing":
			firing++
			if rec.Data.BurnShort <= rec.Data.Threshold {
				t.Errorf("firing event burn_short %v <= threshold %v",
					rec.Data.BurnShort, rec.Data.Threshold)
			}
		case "resolved":
			resolved++
		}
	}
	if firing != 2 || resolved != 2 {
		t.Errorf("slo_alert events: %d firing, %d resolved, want 2/2", firing, resolved)
	}
}
