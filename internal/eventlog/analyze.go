package eventlog

import (
	"fmt"
	"io"
	"sort"
	"text/tabwriter"
)

// Report is the offline aggregation of an event-log replay — the same
// questions /metrics answers live, plus the ones only per-event data can
// answer (top-K slowest with ids, per-rule latency attribution).
type Report struct {
	// Events is the recovery-event count analyzed (aux records excluded);
	// SkippedLines counts undecodable lines (e.g. a torn final write).
	Events       int `json:"events"`
	SkippedLines int `json:"skipped_lines,omitempty"`

	// Errors and Truncated mirror the sigrec_recover_errors_total and
	// sigrec_truncated_total counters; CacheHits counts events answered by
	// the pipeline result cache without computing — memory and disk hits
	// and coalesced waits, so it mirrors sigrec_cache_hits_total plus
	// sigrec_cache_coalesced_total; Functions sums recovered signatures.
	Errors    int   `json:"errors"`
	Truncated int   `json:"truncated"`
	CacheHits int   `json:"cache_hits"`
	Functions int64 `json:"functions"`
	Selectors int64 `json:"selectors"`
	Paths     int64 `json:"paths"`
	Steps     int64 `json:"steps"`

	// TruncCauses breaks truncations down by budget ("deadline", "steps",
	// "paths", "path-steps").
	TruncCauses map[string]int `json:"trunc_causes,omitempty"`

	// RuleFires is the corpus-wide rule-fire vector (Fig. 19 shape).
	RuleFires map[string]uint64 `json:"rule_fires,omitempty"`

	// LatencyBuckets mirrors the paper's Fig. 17 presentation: recovery
	// counts under 1ms, 1-10ms, 10-100ms, and at or over 100ms.
	LatencyBuckets Buckets `json:"latency_buckets"`

	// Quantiles are exact order statistics over the replayed events (the
	// offline log affords exactness; /metrics approximates).
	Quantiles LatencyQuantiles `json:"latency_quantiles"`

	// Phases aggregates the per-phase duration columns over the computed
	// recoveries of non-empty bytecode, the ones the sigrec_phase_*
	// histograms observe; cache hits carry no phase timings.
	Phases []PhaseStat `json:"phases,omitempty"`

	// Rules attributes latency and exploration effort per rule: over the
	// events in which a rule fired at least once, its total fires and the
	// mean duration/steps of those events.
	Rules []RuleStat `json:"rules,omitempty"`

	// Slowest is the top-K slowest recoveries, with the ids needed to pull
	// their full line back out of the log or join to traces.
	Slowest []SlowEntry `json:"slowest,omitempty"`
}

// Buckets is the Fig. 17-style latency histogram.
type Buckets struct {
	Under1ms  int `json:"under_1ms"`
	To10ms    int `json:"1_to_10ms"`
	To100ms   int `json:"10_to_100ms"`
	Over100ms int `json:"over_100ms"`
}

// LatencyQuantiles holds exact whole-recovery latency order statistics in
// microseconds.
type LatencyQuantiles struct {
	P50 int64 `json:"p50_us"`
	P90 int64 `json:"p90_us"`
	P95 int64 `json:"p95_us"`
	P99 int64 `json:"p99_us"`
	Max int64 `json:"max_us"`
}

// PhaseStat aggregates one pipeline phase across the replay.
type PhaseStat struct {
	Name  string `json:"name"`
	SumUS int64  `json:"sum_us"`
	P95US int64  `json:"p95_us"`
}

// RuleStat attributes effort to one inference rule.
type RuleStat struct {
	Rule string `json:"rule"`
	// Fires is the total fire count; Events the number of recoveries in
	// which the rule fired at least once.
	Fires  uint64 `json:"fires"`
	Events int    `json:"events"`
	// MeanDurUS / MeanSteps average over those recoveries.
	MeanDurUS int64 `json:"mean_dur_us"`
	MeanSteps int64 `json:"mean_steps"`
}

// SlowEntry identifies one slow recovery.
type SlowEntry struct {
	Seq        uint64 `json:"seq"`
	RequestID  string `json:"request_id,omitempty"`
	DurUS      int64  `json:"dur_us"`
	Selectors  int    `json:"selectors"`
	Steps      int64  `json:"steps"`
	Truncated  bool   `json:"truncated,omitempty"`
	TruncCause string `json:"trunc_cause,omitempty"`
	Error      string `json:"error,omitempty"`
}

// Analyze aggregates a replayed event stream into a Report. topK bounds
// the slowest table (<= 0 selects 10).
func Analyze(events []Event, topK int) *Report {
	if topK <= 0 {
		topK = 10
	}
	r := &Report{
		Events:      len(events),
		TruncCauses: map[string]int{},
		RuleFires:   map[string]uint64{},
	}
	durs := make([]int64, 0, len(events))
	type phaseAgg struct {
		sum  int64
		durs []int64
	}
	phases := map[string]*phaseAgg{}
	phaseOf := func(name string, v int64) {
		p := phases[name]
		if p == nil {
			p = &phaseAgg{}
			phases[name] = p
		}
		p.sum += v
		p.durs = append(p.durs, v)
	}
	type ruleAgg struct {
		fires    uint64
		events   int
		sumDur   int64
		sumSteps int64
	}
	rules := map[string]*ruleAgg{}
	for i := range events {
		ev := &events[i]
		durs = append(durs, ev.DurUS)
		// Outcome totals mirror the /metrics counters exactly: a cache hit
		// or coalesced wait increments only sigrec_recoveries_total (its
		// result — functions, truncation, error — was counted once, by the
		// recovery that computed it), so
		// hit events contribute only to Events and CacheHits here. That is
		// what lets `sigrec-analyze` totals be diffed against counter deltas.
		if ev.Cache == "hit" {
			r.CacheHits++
		} else {
			if ev.Error != "" {
				r.Errors++
			}
			if ev.Truncated {
				r.Truncated++
				cause := ev.TruncCause
				if cause == "" {
					cause = "unknown"
				}
				r.TruncCauses[cause]++
			}
			r.Functions += int64(ev.Functions)
			r.Selectors += int64(ev.Selectors)
			r.Paths += ev.Paths
			r.Steps += ev.Steps
			// Phases, like the /metrics phase histograms, cover only the
			// computed recoveries that ran them: a hit or an empty input
			// would add a zero-length sample to every phase.
			if ev.CodeBytes > 0 {
				phaseOf("disasm", ev.DisasmUS)
				phaseOf("dispatch", ev.DispatchUS)
				phaseOf("explore", ev.ExploreUS)
				phaseOf("infer", ev.InferUS)
			}
		}
		switch ms := ev.DurUS / 1000; {
		case ms < 1:
			r.LatencyBuckets.Under1ms++
		case ms < 10:
			r.LatencyBuckets.To10ms++
		case ms < 100:
			r.LatencyBuckets.To100ms++
		default:
			r.LatencyBuckets.Over100ms++
		}
		for rule, n := range ev.RuleFires {
			r.RuleFires[rule] += n
			a := rules[rule]
			if a == nil {
				a = &ruleAgg{}
				rules[rule] = a
			}
			a.fires += n
			a.events++
			a.sumDur += ev.DurUS
			a.sumSteps += ev.Steps
		}
	}
	sort.Slice(durs, func(a, b int) bool { return durs[a] < durs[b] })
	if len(durs) > 0 {
		r.Quantiles = LatencyQuantiles{
			P50: exactQuantile(durs, 0.50),
			P90: exactQuantile(durs, 0.90),
			P95: exactQuantile(durs, 0.95),
			P99: exactQuantile(durs, 0.99),
			Max: durs[len(durs)-1],
		}
	}
	for _, name := range []string{"disasm", "dispatch", "explore", "infer"} {
		p := phases[name]
		if p == nil || p.sum == 0 {
			continue
		}
		sort.Slice(p.durs, func(a, b int) bool { return p.durs[a] < p.durs[b] })
		r.Phases = append(r.Phases, PhaseStat{
			Name:  name,
			SumUS: p.sum,
			P95US: exactQuantile(p.durs, 0.95),
		})
	}
	for rule, a := range rules {
		r.Rules = append(r.Rules, RuleStat{
			Rule:      rule,
			Fires:     a.fires,
			Events:    a.events,
			MeanDurUS: a.sumDur / int64(a.events),
			MeanSteps: a.sumSteps / int64(a.events),
		})
	}
	sort.Slice(r.Rules, func(a, b int) bool {
		if r.Rules[a].Fires != r.Rules[b].Fires {
			return r.Rules[a].Fires > r.Rules[b].Fires
		}
		return r.Rules[a].Rule < r.Rules[b].Rule
	})
	slow := make([]*Event, len(events))
	for i := range events {
		slow[i] = &events[i]
	}
	sort.Slice(slow, func(a, b int) bool { return slow[a].DurUS > slow[b].DurUS })
	if len(slow) > topK {
		slow = slow[:topK]
	}
	for _, ev := range slow {
		r.Slowest = append(r.Slowest, SlowEntry{
			Seq:        ev.Seq,
			RequestID:  ev.RequestID,
			DurUS:      ev.DurUS,
			Selectors:  ev.Selectors,
			Steps:      ev.Steps,
			Truncated:  ev.Truncated,
			TruncCause: ev.TruncCause,
			Error:      ev.Error,
		})
	}
	return r
}

// exactQuantile returns the order statistic at q over sorted values
// (nearest-rank).
func exactQuantile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(q*float64(len(sorted))+0.5) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// WriteText renders the report for humans.
func (r *Report) WriteText(w io.Writer) {
	fmt.Fprintf(w, "events analyzed: %d", r.Events)
	if r.SkippedLines > 0 {
		fmt.Fprintf(w, " (%d undecodable lines skipped)", r.SkippedLines)
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "errors: %d  truncated: %d  cache hits: %d\n", r.Errors, r.Truncated, r.CacheHits)
	fmt.Fprintf(w, "selectors: %d  functions: %d  paths: %d  steps: %d\n",
		r.Selectors, r.Functions, r.Paths, r.Steps)
	if len(r.TruncCauses) > 0 {
		fmt.Fprintf(w, "\ntruncation causes:\n")
		causes := make([]string, 0, len(r.TruncCauses))
		for c := range r.TruncCauses {
			causes = append(causes, c)
		}
		sort.Strings(causes)
		for _, c := range causes {
			fmt.Fprintf(w, "  %-12s %d\n", c, r.TruncCauses[c])
		}
	}
	fmt.Fprintf(w, "\nlatency (Fig. 17 buckets):\n")
	total := r.Events
	if total == 0 {
		total = 1
	}
	for _, b := range []struct {
		label string
		n     int
	}{
		{"< 1ms", r.LatencyBuckets.Under1ms},
		{"1-10ms", r.LatencyBuckets.To10ms},
		{"10-100ms", r.LatencyBuckets.To100ms},
		{">= 100ms", r.LatencyBuckets.Over100ms},
	} {
		fmt.Fprintf(w, "  %-9s %6d  (%5.1f%%)\n", b.label, b.n, 100*float64(b.n)/float64(total))
	}
	fmt.Fprintf(w, "\nlatency quantiles (exact, us): p50=%d p90=%d p95=%d p99=%d max=%d\n",
		r.Quantiles.P50, r.Quantiles.P90, r.Quantiles.P95, r.Quantiles.P99, r.Quantiles.Max)
	if len(r.Phases) > 0 {
		fmt.Fprintf(w, "\nphase attribution:\n")
		tw := tabwriter.NewWriter(w, 2, 0, 2, ' ', 0)
		fmt.Fprintf(tw, "  phase\tsum_us\tp95_us\n")
		for _, p := range r.Phases {
			fmt.Fprintf(tw, "  %s\t%d\t%d\n", p.Name, p.SumUS, p.P95US)
		}
		tw.Flush()
	}
	if len(r.Rules) > 0 {
		fmt.Fprintf(w, "\nrule attribution (events where the rule fired):\n")
		tw := tabwriter.NewWriter(w, 2, 0, 2, ' ', 0)
		fmt.Fprintf(tw, "  rule\tfires\tevents\tmean_dur_us\tmean_steps\n")
		for _, rs := range r.Rules {
			fmt.Fprintf(tw, "  %s\t%d\t%d\t%d\t%d\n", rs.Rule, rs.Fires, rs.Events, rs.MeanDurUS, rs.MeanSteps)
		}
		tw.Flush()
	}
	if len(r.Slowest) > 0 {
		fmt.Fprintf(w, "\nslowest recoveries:\n")
		tw := tabwriter.NewWriter(w, 2, 0, 2, ' ', 0)
		fmt.Fprintf(tw, "  seq\trequest_id\tdur_us\tselectors\tsteps\tnote\n")
		for _, s := range r.Slowest {
			note := ""
			switch {
			case s.Error != "":
				note = "error: " + s.Error
			case s.Truncated:
				note = "truncated: " + s.TruncCause
			}
			fmt.Fprintf(tw, "  %d\t%s\t%d\t%d\t%d\t%s\n", s.Seq, s.RequestID, s.DurUS, s.Selectors, s.Steps, note)
		}
		tw.Flush()
	}
}
