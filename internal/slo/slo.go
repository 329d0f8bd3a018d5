// Package slo is the service-level-objective engine: declarative
// objectives over the metrics the fleet already produces, evaluated with
// the SRE-workbook multi-window multi-burn-rate pattern.
//
// An Objective names a target fraction of good events (99.9%
// availability, 99% of recoveries under 10ms) and a Source that reports
// the cumulative (good, total) event counts. The Evaluator samples every
// source on a fixed cadence into a per-objective ring, derives windowed
// error rates by differencing against the sample nearest each window's
// start, and converts them to burn rates — multiples of the rate that
// would consume the error budget exactly at the target. An alert fires
// when BOTH windows of a pair burn faster than the pair's threshold
// (fast 5m/1h at 14.4x pages, slow 30m/6h at 6x tickets), which is what
// makes the alerts both fast and spike-proof: the short window gives the
// fast trigger and fast reset, the long window suppresses blips.
//
// Everything is deterministic under an injected clock: tests drive Tick
// directly with a fake Now and assert exact fire/clear transitions. The
// evaluator publishes burn rates and budget state as
// sigrec_slo_* gauge families, serves its full state for GET /debug/slo,
// and emits a wide event on every alert transition so pages are joinable
// to the durable log.
package slo

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"sigrec/internal/eventlog"
	"sigrec/internal/telemetry"
)

// Source reports cumulative good/total event counts for one objective.
// Samples must be monotone non-decreasing; the evaluator differences
// them over time windows.
type Source interface {
	Sample() (good, total float64)
}

// CounterSource derives availability from two cumulative counters: total
// requests and errors (good = total - errors). Both live in the shared
// telemetry registry, so the SLI is exactly what /metrics exposes.
type CounterSource struct {
	Total  *telemetry.Counter
	Errors *telemetry.Counter
}

func (s CounterSource) Sample() (good, total float64) {
	t := float64(s.Total.Load())
	e := float64(s.Errors.Load())
	if e > t {
		e = t
	}
	return t - e, t
}

// LatencySource derives a latency objective ("X% of requests complete
// under ThresholdUS") from a latency histogram: good is the histogram's
// count at or below the threshold, total its count. Both are sums of
// monotone bucket counters, so successive samples never decrease, and
// good is exact when the threshold is a bucket bound (both binaries'
// defaults are); between bounds it interpolates within one bucket.
type LatencySource struct {
	Histogram   *telemetry.Histogram
	ThresholdUS float64
}

func (s LatencySource) Sample() (good, total float64) {
	snap := s.Histogram.Snapshot()
	return snap.CountAtOrBelow(s.ThresholdUS), float64(snap.Count)
}

// Objective is one declarative SLO.
type Objective struct {
	// Name identifies the objective in metrics, events, and /debug/slo
	// (e.g. "availability", "latency_p99_10ms").
	Name string
	// Target is the good fraction the SLO promises, e.g. 0.999.
	Target float64
	// Source reports the cumulative SLI counts.
	Source Source
}

// WindowPair is one multi-window burn-rate alert rule: fire when both
// the short and the long window burn faster than Burn.
type WindowPair struct {
	Short    time.Duration
	Long     time.Duration
	Burn     float64
	Severity string // "page" or "ticket"
}

// DefaultWindows are the SRE-workbook recommendations: 14.4x over 5m+1h
// pages (2% of a 30d budget in one hour), 6x over 30m+6h tickets (5% in
// six hours).
func DefaultWindows() []WindowPair {
	return []WindowPair{
		{Short: 5 * time.Minute, Long: time.Hour, Burn: 14.4, Severity: "page"},
		{Short: 30 * time.Minute, Long: 6 * time.Hour, Burn: 6, Severity: "ticket"},
	}
}

// Config configures an Evaluator.
type Config struct {
	Objectives []Objective
	// Windows are the alert rules; nil selects DefaultWindows.
	Windows []WindowPair
	// Interval is the sampling cadence (and the background tick period
	// when Start is used). <= 0 selects DefaultInterval.
	Interval time.Duration
	// Registry receives the sigrec_slo_* gauge families.
	Registry *telemetry.Registry
	// Events, when non-nil, receives one "slo_alert" aux record per
	// alert transition.
	Events *eventlog.Writer
	// Now is the clock; nil selects time.Now. Tests inject a fake.
	Now func() time.Time
}

// DefaultInterval is the sampling cadence.
const DefaultInterval = 10 * time.Second

// sample is one timestamped cumulative observation.
type sample struct {
	t           time.Time
	good, total float64
}

// objectiveState is the evaluator's per-objective bookkeeping.
type objectiveState struct {
	obj Objective
	// ring holds the trailing samples, oldest first, covering at least
	// the longest alert window.
	ring []sample
	// firing maps severity → whether that window pair is currently firing.
	firing map[string]bool
	since  map[string]time.Time
}

// Evaluator samples objectives and maintains burn-rate alert state.
type Evaluator struct {
	cfg     Config
	windows []WindowPair
	keep    time.Duration

	mu   sync.Mutex
	objs []*objectiveState

	mBurn   *telemetry.FloatGaugeVec
	mBudget *telemetry.FloatGaugeVec
	mFiring *telemetry.GaugeVec
	mTrans  *telemetry.CounterVec

	done    chan struct{}
	stopped chan struct{}
}

// New returns an Evaluator with the gauge families registered. Call Tick
// from a fake-clock test, or Start for the background loop.
func New(cfg Config) *Evaluator {
	if cfg.Interval <= 0 {
		cfg.Interval = DefaultInterval
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	windows := cfg.Windows
	if windows == nil {
		windows = DefaultWindows()
	}
	var keep time.Duration
	for _, w := range windows {
		if w.Long > keep {
			keep = w.Long
		}
	}
	e := &Evaluator{
		cfg:     cfg,
		windows: windows,
		keep:    keep + cfg.Interval,
		done:    make(chan struct{}),
		stopped: make(chan struct{}),
	}
	for _, o := range cfg.Objectives {
		st := &objectiveState{
			obj:    o,
			firing: make(map[string]bool),
			since:  make(map[string]time.Time),
		}
		for _, w := range windows {
			st.firing[w.Severity] = false
		}
		e.objs = append(e.objs, st)
	}
	reg := cfg.Registry
	e.mBurn = reg.FloatGaugeVec("sigrec_slo_burn_rate", "slo")
	reg.SetHelp("sigrec_slo_burn_rate",
		"Error-budget burn rate per objective and window (1.0 consumes the budget exactly at the target).")
	e.mBudget = reg.FloatGaugeVec("sigrec_slo_error_budget_remaining_ratio", "slo")
	reg.SetHelp("sigrec_slo_error_budget_remaining_ratio",
		"Fraction of the cumulative error budget still unspent per objective (negative when overspent).")
	e.mFiring = reg.GaugeVec("sigrec_slo_alert_firing", "slo")
	reg.SetHelp("sigrec_slo_alert_firing",
		"Whether the burn-rate alert for an objective:severity pair is currently firing (0 or 1).")
	e.mTrans = reg.CounterVec("sigrec_slo_alert_transitions_total", "state")
	reg.SetHelp("sigrec_slo_alert_transitions_total",
		"SLO alert state transitions, by new state (firing or resolved).")
	return e
}

// windowLabel renders a duration the way operators write them (5m, 1h).
func windowLabel(d time.Duration) string {
	if d%time.Hour == 0 {
		return fmt.Sprintf("%dh", d/time.Hour)
	}
	return fmt.Sprintf("%dm", d/time.Minute)
}

// rateOver returns the windowed error rate: the bad fraction of the
// events between now-w and now, differenced from the ring. The second
// return reports whether the window produced any events.
func (st *objectiveState) rateOver(now time.Time, w time.Duration) (float64, bool) {
	if len(st.ring) == 0 {
		return 0, false
	}
	cur := st.ring[len(st.ring)-1]
	cutoff := now.Add(-w)
	// Oldest sample at or after the cutoff; the ring is time-ordered.
	base := st.ring[0]
	for _, s := range st.ring {
		if !s.t.Before(cutoff) {
			base = s
			break
		}
	}
	dTotal := cur.total - base.total
	dGood := cur.good - base.good
	if dTotal <= 0 {
		return 0, false
	}
	bad := (dTotal - dGood) / dTotal
	if bad < 0 {
		bad = 0
	}
	return bad, true
}

// AlertTransition is the wide-event payload emitted on every alert state
// change.
type AlertTransition struct {
	Objective string  `json:"objective"`
	Severity  string  `json:"severity"`
	State     string  `json:"state"` // "firing" or "resolved"
	BurnShort float64 `json:"burn_short"`
	BurnLong  float64 `json:"burn_long"`
	Threshold float64 `json:"threshold"`
	Target    float64 `json:"target"`
	TS        int64   `json:"ts_us"`
}

// Tick runs one sample-and-evaluate step at the injected clock's now.
// The background loop calls it on the interval; fake-clock tests call it
// directly.
func (e *Evaluator) Tick() {
	now := e.cfg.Now()
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, st := range e.objs {
		good, total := st.obj.Source.Sample()
		st.ring = append(st.ring, sample{t: now, good: good, total: total})
		// Evict samples older than the longest window (keep one before
		// the horizon so differencing at the full window still brackets).
		horizon := now.Add(-e.keep)
		drop := 0
		for drop < len(st.ring)-1 && st.ring[drop+1].t.Before(horizon) {
			drop++
		}
		st.ring = st.ring[drop:]

		budgetFrac := 1 - st.obj.Target
		// Cumulative budget position since process start.
		if total > 0 && budgetFrac > 0 {
			badFrac := (total - good) / total
			e.mBudget.With(st.obj.Name).Set(1 - badFrac/budgetFrac)
		}
		for _, w := range e.windows {
			shortRate, okS := st.rateOver(now, w.Short)
			longRate, okL := st.rateOver(now, w.Long)
			var burnShort, burnLong float64
			if budgetFrac > 0 {
				burnShort = shortRate / budgetFrac
				burnLong = longRate / budgetFrac
			}
			e.mBurn.With(st.obj.Name + ":" + windowLabel(w.Short)).Set(burnShort)
			e.mBurn.With(st.obj.Name + ":" + windowLabel(w.Long)).Set(burnLong)
			firing := okS && okL && burnShort > w.Burn && burnLong > w.Burn
			if firing != st.firing[w.Severity] {
				st.firing[w.Severity] = firing
				state := "resolved"
				if firing {
					state = "firing"
					st.since[w.Severity] = now
				}
				e.mTrans.With(state).Inc()
				e.cfg.Events.EmitAux("slo_alert", AlertTransition{
					Objective: st.obj.Name,
					Severity:  w.Severity,
					State:     state,
					BurnShort: burnShort,
					BurnLong:  burnLong,
					Threshold: w.Burn,
					Target:    st.obj.Target,
					TS:        now.UnixMicro(),
				})
			}
			v := int64(0)
			if firing {
				v = 1
			}
			e.mFiring.With(st.obj.Name + ":" + w.Severity).Set(v)
		}
	}
}

// Start launches the background tick loop.
func (e *Evaluator) Start() {
	go func() {
		defer close(e.stopped)
		ticker := time.NewTicker(e.cfg.Interval)
		defer ticker.Stop()
		for {
			select {
			case <-ticker.C:
				e.Tick()
			case <-e.done:
				return
			}
		}
	}()
}

// Close stops the background loop (started with Start).
func (e *Evaluator) Close() {
	close(e.done)
	<-e.stopped
}

// WindowState is one window's burn state for /debug/slo.
type WindowState struct {
	Window    string  `json:"window"`
	BurnRate  float64 `json:"burn_rate"`
	Threshold float64 `json:"threshold"`
	Severity  string  `json:"severity"`
}

// AlertState is one severity's alert state for /debug/slo.
type AlertState struct {
	Severity string `json:"severity"`
	Firing   bool   `json:"firing"`
	Since    string `json:"since,omitempty"`
}

// ObjectiveState is one objective's full state for /debug/slo.
type ObjectiveState struct {
	Name                 string        `json:"name"`
	Target               float64       `json:"target"`
	CumulativeGood       float64       `json:"cumulative_good"`
	CumulativeTotal      float64       `json:"cumulative_total"`
	ErrorBudgetRemaining float64       `json:"error_budget_remaining_ratio"`
	Windows              []WindowState `json:"windows"`
	Alerts               []AlertState  `json:"alerts"`
	Samples              int           `json:"samples"`
}

// State reports every objective's current burn/alert state, for the
// /debug/slo page. Rates are recomputed from the rings at the injected
// clock's now, so the page agrees with the last Tick's gauge values.
func (e *Evaluator) State() []ObjectiveState {
	now := e.cfg.Now()
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]ObjectiveState, 0, len(e.objs))
	for _, st := range e.objs {
		os := ObjectiveState{
			Name:    st.obj.Name,
			Target:  st.obj.Target,
			Samples: len(st.ring),
		}
		if len(st.ring) > 0 {
			cur := st.ring[len(st.ring)-1]
			os.CumulativeGood, os.CumulativeTotal = cur.good, cur.total
			if budgetFrac := 1 - st.obj.Target; cur.total > 0 && budgetFrac > 0 {
				os.ErrorBudgetRemaining = 1 - ((cur.total-cur.good)/cur.total)/budgetFrac
			}
		}
		budgetFrac := 1 - st.obj.Target
		for _, w := range e.windows {
			for _, d := range []time.Duration{w.Short, w.Long} {
				rate, _ := st.rateOver(now, d)
				burn := 0.0
				if budgetFrac > 0 {
					burn = rate / budgetFrac
				}
				os.Windows = append(os.Windows, WindowState{
					Window:    windowLabel(d),
					BurnRate:  burn,
					Threshold: w.Burn,
					Severity:  w.Severity,
				})
			}
		}
		sevs := make([]string, 0, len(st.firing))
		for sev := range st.firing {
			sevs = append(sevs, sev)
		}
		sort.Strings(sevs)
		for _, sev := range sevs {
			as := AlertState{Severity: sev, Firing: st.firing[sev]}
			if t, ok := st.since[sev]; ok && st.firing[sev] {
				as.Since = t.UTC().Format(time.RFC3339)
			}
			os.Alerts = append(os.Alerts, as)
		}
		out = append(out, os)
	}
	return out
}
