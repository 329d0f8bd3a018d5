package core

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sigrec/internal/corpus"
	"sigrec/internal/solc"
	"sigrec/internal/telemetry"
	"sigrec/internal/vyperc"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/signatures.golden and testdata/engine_counts.golden from the current engine")

const (
	goldenPath       = "testdata/signatures.golden"
	engineCountsPath = "testdata/engine_counts.golden"
)

// renderResult serializes everything a caller can observe from one
// recovery: a contract line (error, truncation flag, rule-application
// counts) and one line per recovered function (selector, type list,
// language, truncation flag, per-parameter rule trail). It is the one
// rendering that the differential tests compare and that the signature
// golden records.
func renderResult(r Result, err error) string {
	var b strings.Builder
	fmt.Fprintf(&b, "err=%v truncated=%v rules=", err, r.Truncated)
	sep := ""
	for id := 1; id <= NumRules; id++ {
		if n := r.Rules[id]; n > 0 {
			fmt.Fprintf(&b, "%s%s:%d", sep, RuleID(id), n)
			sep = ","
		}
	}
	b.WriteByte('\n')
	for _, f := range r.Functions {
		fmt.Fprintf(&b, "  %s\n", renderFunction(f))
	}
	return b.String()
}

// renderFunction is renderResult's line for one recovered function.
func renderFunction(f RecoveredFunction) string {
	return fmt.Sprintf("%x %s lang=%v trunc=%v rules=%v",
		[4]byte(f.Selector), f.TypeList(), f.Language, f.Truncated, f.ParamRules)
}

// dialect names the compiler configuration an E1 entry was built with.
func dialect(e corpus.Entry) string {
	if e.Language == corpus.Vyper {
		return "vyper-" + e.Version
	}
	if e.Optimized {
		return "solidity-" + e.Version + "-opt"
	}
	return "solidity-" + e.Version
}

// distinctCodes returns each contract of a synthesized dataset once, in
// order (its entries repeat a contract's code once per function).
func distinctCodes(entries []corpus.Entry) [][]byte {
	seen := make(map[string]bool)
	var codes [][]byte
	for _, e := range entries {
		if k := string(e.Code); !seen[k] {
			seen[k] = true
			codes = append(codes, e.Code)
		}
	}
	return codes
}

// TestSignatureGolden pins every signature the engine recovers from the
// E1 corpus (seed 1: 2,150 one-function contracts over every Solidity
// dialect with and without the optimizer plus every Vyper dialect) and
// from dataset 2 (seed 1: 100 ten-function contracts), together with the
// rule trail behind each type. Any change to a type, a trail, a language
// tag or a truncation flag fails it. Re-record with
// `go test ./internal/core -run TestSignatureGolden -update` (or
// `make golden`) only when the diff is the intended effect of a change.
func TestSignatureGolden(t *testing.T) {
	e1, err := corpus.Generate(corpus.DefaultConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	synth, err := corpus.GenerateSynthesized(1)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	var b strings.Builder
	dialects := make(map[string]bool)
	for i, e := range e1.Entries {
		d := dialect(e)
		dialects[d] = true
		res, err := RecoverContext(ctx, e.Code, Options{})
		fmt.Fprintf(&b, "e1/%04d %s %s", i, d, renderResult(res, err))
	}
	if got, want := len(dialects), 2*len(solc.Versions())+len(vyperc.Versions()); got != want {
		t.Fatalf("E1 corpus covers %d compiler dialects, want all %d", got, want)
	}
	codes := distinctCodes(synth)
	if len(codes) != 100 || len(synth) != 1000 {
		t.Fatalf("dataset 2 has %d contracts and %d functions, want 100 and 1000", len(codes), len(synth))
	}
	for i, code := range codes {
		res, err := RecoverContext(ctx, code, Options{})
		fmt.Fprintf(&b, "d2/%03d %s", i, renderResult(res, err))
	}
	checkGolden(t, goldenPath, b.String())
}

// checkGolden compares got with the golden file at path, or rewrites the
// file under -update.
func checkGolden(t *testing.T, path, got string) {
	t.Helper()
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (record it with -update): %v", err)
	}
	if want := string(raw); got != want {
		t.Fatalf("engine output differs from %s:\n%s\nIf the change is intended, re-record with -update and review the diff.",
			path, lineDiff(want, got, 10))
	}
}

// TestEngineCountsGolden pins the deterministic engine counters over the
// two golden corpora (E1 seed 1 and dataset 2 seed 1), each recovered
// whole at fan-out width 1: the interner's hit and miss totals and the
// TASE steps, paths and events, dispatcher walks included. The counts do
// not depend on how the interner stores its nodes, only on which nodes
// it installs and which lookups find one, so a change to the node table
// must reproduce them exactly; core.intern_hit_ratio in the benchmark
// reads the same counters. Re-record with -update (or `make golden`).
func TestEngineCountsGolden(t *testing.T) {
	e1, err := corpus.Generate(corpus.DefaultConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	synth, err := corpus.GenerateSynthesized(1)
	if err != nil {
		t.Fatal(err)
	}
	codes := make([][]byte, len(e1.Entries))
	for i, e := range e1.Entries {
		codes[i] = e.Code
	}
	got := "e1 " + engineCounts(t, codes) + "d2 " + engineCounts(t, distinctCodes(synth))
	checkGolden(t, engineCountsPath, got)
}

// engineCounts recovers every contract at fan-out width 1 and renders the
// engine counters' deltas over the run.
func engineCounts(t *testing.T, codes [][]byte) string {
	counters := []struct {
		name string
		c    *telemetry.Counter
	}{
		{"intern_hits", mInternHits},
		{"intern_misses", mInternMisses},
		{"steps", mTASESteps},
		{"paths", mPathsExplored},
		{"events", mEvents},
	}
	before := make([]uint64, len(counters))
	for i, c := range counters {
		before[i] = c.c.Load()
	}
	for _, code := range codes {
		if _, err := RecoverContext(context.Background(), code, Options{workers: 1}); err != nil {
			t.Fatal(err)
		}
	}
	var b strings.Builder
	for i, c := range counters {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s=%d", c.name, c.c.Load()-before[i])
	}
	b.WriteByte('\n')
	return b.String()
}

// lineDiff reports up to max differing lines between want and got.
func lineDiff(want, got string, max int) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	var b strings.Builder
	shown := 0
	for i := 0; i < len(w) || i < len(g); i++ {
		var wl, gl string
		if i < len(w) {
			wl = w[i]
		}
		if i < len(g) {
			gl = g[i]
		}
		if wl == gl {
			continue
		}
		if shown == max {
			b.WriteString("...\n")
			break
		}
		fmt.Fprintf(&b, "line %d:\n  golden: %s\n  now:    %s\n", i+1, wl, gl)
		shown++
	}
	if len(w) != len(g) {
		fmt.Fprintf(&b, "golden has %d lines, now %d\n", len(w), len(g))
	}
	return b.String()
}
