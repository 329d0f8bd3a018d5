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
	"sigrec/internal/vyperc"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/signatures.golden from the current engine")

const goldenPath = "testdata/signatures.golden"

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
	got := b.String()

	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("read golden (record it with -update): %v", err)
	}
	if want := string(raw); got != want {
		t.Fatalf("recovered signatures differ from %s:\n%s\nIf the change is intended, re-record with -update and review the diff.",
			goldenPath, lineDiff(want, got, 10))
	}
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
