package telemetry

import (
	"strings"
	"testing"
)

func lintErrs(t *testing.T, exposition string) []string {
	t.Helper()
	return Lint(exposition)
}

func wantClean(t *testing.T, exposition string) {
	t.Helper()
	if errs := Lint(exposition); len(errs) != 0 {
		t.Errorf("want clean, got %v for:\n%s", errs, exposition)
	}
}

func wantViolation(t *testing.T, exposition, fragment string) {
	t.Helper()
	errs := Lint(exposition)
	for _, e := range errs {
		if strings.Contains(e, fragment) {
			return
		}
	}
	t.Errorf("want a violation containing %q, got %v for:\n%s", fragment, errs, exposition)
}

func TestLintCleanExpositions(t *testing.T) {
	wantClean(t, "# TYPE a counter\na 1\n")
	wantClean(t, "# HELP a Something.\n# TYPE a counter\na 1\n")
	wantClean(t, "# TYPE a counter\na{rule=\"R1\"} 1\na{rule=\"R2\"} 0\n")
	wantClean(t, "# TYPE g gauge\ng{v=\"a\\\\b\\\"c\\nd\"} 1\n")
	wantClean(t, "# TYPE h histogram\n"+
		"h_bucket{le=\"100\"} 2\nh_bucket{le=\"1000\"} 5\nh_bucket{le=\"+Inf\"} 7\n"+
		"h_sum 123\nh_count 7\n")
}

func TestLintStructuralViolations(t *testing.T) {
	wantViolation(t, "a 1\n", "no TYPE")
	wantViolation(t, "# TYPE a counter\na 1\n\n# TYPE b counter\nb 1\n", "blank line")
	wantViolation(t, "# TYPE a counter\na 1\n# HELP a Late.\na 2\n", "must come first")
	wantViolation(t, "# TYPE a counter\n# TYPE a counter\na 1\n", "duplicate TYPE")
	wantViolation(t, "# TYPE a counter\na 1\n# TYPE b counter\nb 1\n# TYPE a counter\na 2\n", "interleaved")
	wantViolation(t, "# TYPE a counter\n", "no samples")
	wantViolation(t, "# TYPE a bogus\na 1\n", "malformed TYPE")
	wantViolation(t, "# EOF\n", "unexpected comment")
}

func TestLintSeriesViolations(t *testing.T) {
	wantViolation(t, "# TYPE a counter\na{rule=\"R2\"} 1\na{rule=\"R1\"} 1\n", "not sorted")
	wantViolation(t, "# TYPE a counter\na{rule=\"R1\"} 1\na{rule=\"R1\"} 2\n", "duplicate series")
	wantViolation(t, "# TYPE a counter\na -1\n", "negative")
	wantViolation(t, "# TYPE a counter\na one\n", "does not parse")
	wantViolation(t, "# TYPE a counter\na{1bad=\"x\"} 1\n", "malformed sample")
	wantViolation(t, "# TYPE a counter\na{v=\"tab\\t\"} 1\n", "malformed sample")
	wantViolation(t, "# TYPE a counter\na{v=\"unterminated} 1\n", "malformed sample")
}

func TestLintHistogramViolations(t *testing.T) {
	wantViolation(t, "# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_sum 1\nh_count 1\n", "+Inf")
	wantViolation(t, "# TYPE h histogram\n"+
		"h_bucket{le=\"1\"} 5\nh_bucket{le=\"2\"} 3\nh_bucket{le=\"+Inf\"} 5\nh_sum 1\nh_count 5\n",
		"not cumulative")
	wantViolation(t, "# TYPE h histogram\n"+
		"h_bucket{le=\"+Inf\"} 4\nh_sum 1\nh_count 7\n", "!= _count")
	wantViolation(t, "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 4\nh_sum 1\n", "missing _count")
	wantViolation(t, "# TYPE h histogram\nh_bucket 4\nh_sum 1\nh_count 4\n", "missing le")
}

// TestLintRegistryOutput is the round-trip: everything the Registry can
// emit — plain counters, gauges, histograms, labeled families with escapes,
// info metrics, HELP text — must pass the strict grammar.
func TestLintRegistryOutput(t *testing.T) {
	r := NewRegistry()
	r.Counter("plain_total").Add(4)
	r.Gauge("depth").Set(-2)
	r.Histogram("lat_us").Observe(50)
	v := r.CounterVec("rules_total", "rule")
	for _, rule := range []string{"R1", "R11", "R2", "R31"} {
		v.With(rule).Inc()
	}
	v.With("we\"ird\\rule\n").Inc()
	r.SetInfo("build_info", map[string]string{"version": "v0.0.0-dev", "go_version": "go1.24.0"})
	r.SetHelp("rules_total", "Rule firings by rule id.")
	r.SetHelp("build_info", "Build identity\nsecond line.")
	out := r.Snapshot().String()
	if errs := lintErrs(t, out); len(errs) != 0 {
		t.Fatalf("registry output fails lint: %v\n%s", errs, out)
	}
}

// TestLintSummaryViolations checks the linter rejects malformed summary
// and exemplar shapes. (The registry exposes no summaries; the linter
// still speaks the full text format for expositions it did not render.)
func TestLintSummaryViolations(t *testing.T) {
	cases := map[string]string{
		"missing quantile label": "# TYPE s summary\ns 5\ns_sum 5\ns_count 1\n",
		"quantile out of range":  "# TYPE s summary\ns{quantile=\"1.5\"} 5\ns_sum 5\ns_count 1\n",
		"missing count":          "# TYPE s summary\ns{quantile=\"0.5\"} 5\ns_sum 5\n",
		"exemplar on counter":    "# TYPE c counter\nc 5 # {request_id=\"x\"} 5\n",
		"malformed exemplar": "# TYPE h histogram\nh_bucket{le=\"1\"} 1 # nope\n" +
			"h_bucket{le=\"+Inf\"} 1\nh_sum 1\nh_count 1\n",
		"exemplar bad value": "# TYPE h histogram\nh_bucket{le=\"1\"} 1 # {request_id=\"x\"} zz\n" +
			"h_bucket{le=\"+Inf\"} 1\nh_sum 1\nh_count 1\n",
	}
	for name, exp := range cases {
		if errs := Lint(exp); len(errs) == 0 {
			t.Errorf("%s: lint accepted malformed exposition:\n%s", name, exp)
		}
	}
	good := "# TYPE h histogram\nh_bucket{le=\"1\"} 1 # {request_id=\"x\"} 0.5\n" +
		"h_bucket{le=\"+Inf\"} 2\nh_sum 3\nh_count 2\n"
	if errs := Lint(good); len(errs) != 0 {
		t.Errorf("lint rejected well-formed exemplar: %v", errs)
	}
}
