package experiments

import (
	"strconv"
	"strings"
	"testing"
)

// small returns test-scale parameters.
func small() Params { return Params{Seed: 1, Scale: 0.05} }

// parsePct turns "97.5%" into 97.5.
func parsePct(t *testing.T, s string) float64 {
	t.Helper()
	s = strings.TrimSuffix(s, "%")
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("not a percentage: %q", s)
	}
	return v
}

func cell(t *testing.T, tb Table, rowLabel, col string) string {
	t.Helper()
	ci := -1
	for i, h := range tb.Header {
		if h == col {
			ci = i
		}
	}
	if ci < 0 {
		t.Fatalf("column %q missing in %v", col, tb.Header)
	}
	for _, row := range tb.Rows {
		if row[0] == rowLabel {
			return row[ci]
		}
	}
	t.Fatalf("row %q missing in table %s", rowLabel, tb.ID)
	return ""
}

func TestRegistryComplete(t *testing.T) {
	rs := All()
	if len(rs) != 14 {
		t.Fatalf("%d experiments registered", len(rs))
	}
	seen := map[string]bool{}
	for _, r := range rs {
		if seen[r.ID] {
			t.Errorf("duplicate id %s", r.ID)
		}
		seen[r.ID] = true
		if _, ok := ByID(r.ID); !ok {
			t.Errorf("ByID(%s) failed", r.ID)
		}
	}
	if _, ok := ByID("nope"); ok {
		t.Error("unknown id resolved")
	}
}

func TestE1AccuracyBand(t *testing.T) {
	tb, err := E1Accuracy(small())
	if err != nil {
		t.Fatal(err)
	}
	sol := parsePct(t, cell(t, tb, "solidity", "accuracy"))
	if sol < 94 || sol > 100 {
		t.Errorf("solidity accuracy %.1f%% outside the paper band\n%s", sol, tb)
	}
	vy := parsePct(t, cell(t, tb, "vyper", "accuracy"))
	if vy < 90 {
		t.Errorf("vyper accuracy %.1f%% too low\n%s", vy, tb)
	}
}

func TestE2VersionsFlat(t *testing.T) {
	tb, err := E2CompilerVersions(Params{Seed: 2, Scale: 0.15})
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) < 20 {
		t.Fatalf("only %d version rows", len(tb.Rows))
	}
	// Versions with a meaningful sample must stay accurate.
	for _, row := range tb.Rows {
		n, _ := strconv.Atoi(row[1])
		if n < 8 {
			continue
		}
		if acc := parsePct(t, row[2]); acc < 85 {
			t.Errorf("version %s accuracy %.1f%%", row[0], acc)
		}
	}
}

func TestE3TimeShape(t *testing.T) {
	tb, err := E3TimeDistribution(small())
	if err != nil {
		t.Fatal(err)
	}
	fast := parsePct(t, tb.Rows[0][2]) + parsePct(t, tb.Rows[1][2])
	if fast < 80 {
		t.Errorf("only %.1f%% of recoveries under 10ms\n%s", fast, tb)
	}
}

func TestE4Linear(t *testing.T) {
	tb, err := E4DimensionSweep(small())
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 20 {
		t.Fatalf("%d rows", len(tb.Rows))
	}
	// The recovered dimension structure must track the input dimension for
	// the first rows (1..8 under the nesting bound).
	if tb.Rows[0][1] != "uint256[2]" {
		t.Errorf("dim 1 recovered as %s", tb.Rows[0][1])
	}
	if !strings.Contains(tb.Rows[2][1], "[1]") {
		t.Errorf("dim 3 recovered as %s", tb.Rows[2][1])
	}
}

func TestE5AllRulesUsed(t *testing.T) {
	tb, err := E5RuleUsage(Params{Seed: 5, Scale: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 31 {
		t.Fatalf("%d rule rows", len(tb.Rows))
	}
	zero := []string{}
	for _, row := range tb.Rows {
		if row[1] == "0" {
			zero = append(zero, row[0])
		}
	}
	if len(zero) > 0 {
		t.Errorf("rules never used: %v", zero)
	}
}

func TestE7SynthesizedShape(t *testing.T) {
	tb, err := E7Dataset2(Params{Seed: 7, Scale: 1})
	if err != nil {
		t.Fatal(err)
	}
	sig := parsePct(t, cell(t, tb, "correct", "SigRec"))
	if sig < 95 {
		t.Errorf("SigRec on synthesized = %.1f%%\n%s", sig, tb)
	}
	for _, dbTool := range []string{"OSD", "EBD", "JEB"} {
		if v := parsePct(t, cell(t, tb, "correct", dbTool)); v != 0 {
			t.Errorf("%s on synthesized = %.1f%%, want 0", dbTool, v)
		}
	}
	ev := parsePct(t, cell(t, tb, "correct", "Eveem"))
	if ev <= 0 || ev >= sig {
		t.Errorf("Eveem = %.1f%% (SigRec %.1f%%)", ev, sig)
	}
}

func TestE8OpenSourceShape(t *testing.T) {
	tb, err := E8Dataset3(small())
	if err != nil {
		t.Fatal(err)
	}
	sig := parsePct(t, cell(t, tb, "correct", "SigRec"))
	osd := parsePct(t, cell(t, tb, "correct", "OSD"))
	ev := parsePct(t, cell(t, tb, "correct", "Eveem"))
	if sig < 90 {
		t.Errorf("SigRec = %.1f%%", sig)
	}
	if osd > 60 || osd < 30 {
		t.Errorf("OSD = %.1f%%, want around the 51%% DB coverage", osd)
	}
	if ev <= osd {
		t.Errorf("Eveem (%.1f%%) must beat OSD (%.1f%%) via heuristics", ev, osd)
	}
	if sig-osd < 20 {
		t.Errorf("SigRec lead over OSD only %.1f points", sig-osd)
	}
}

func TestE9StructNestedShape(t *testing.T) {
	tb, err := E9StructNested(Params{Seed: 9, Scale: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	sig := parsePct(t, cell(t, tb, "correct", "SigRec"))
	gig := parsePct(t, cell(t, tb, "correct", "Gigahorse"))
	if sig < 40 {
		t.Errorf("SigRec on struct/nested = %.1f%%", sig)
	}
	if gig >= sig {
		t.Errorf("Gigahorse %.1f%% >= SigRec %.1f%%", gig, sig)
	}
}

func TestE11ParCheckerShape(t *testing.T) {
	tb, err := E11ParChecker(small())
	if err != nil {
		t.Fatal(err)
	}
	var falseAlarms, detected string
	for _, row := range tb.Rows {
		switch row[0] {
		case "false alarms on valid transactions":
			falseAlarms = row[1]
		case "invalid detected":
			detected = row[1]
		}
	}
	if falseAlarms != "0" {
		t.Errorf("false alarms = %s\n%s", falseAlarms, tb)
	}
	if !strings.Contains(detected, "(100.0%)") {
		t.Errorf("invalid detection not complete: %s\n%s", detected, tb)
	}
}

func TestE12FuzzShape(t *testing.T) {
	tb, err := E12Fuzzing(Params{Seed: 12, Scale: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	typed := 0
	random := 0
	for _, row := range tb.Rows {
		if strings.HasPrefix(row[0], "ContractFuzzer (") {
			typed, _ = strconv.Atoi(row[2])
		}
		if strings.HasPrefix(row[0], "ContractFuzzer-") {
			random, _ = strconv.Atoi(row[2])
		}
	}
	if typed <= random {
		t.Errorf("typed %d <= random %d\n%s", typed, random, tb)
	}
}

func TestE13EraysShape(t *testing.T) {
	tb, err := E13Erays(small())
	if err != nil {
		t.Fatal(err)
	}
	for _, metric := range []string{"types added", "parameter names added", "access-code lines removed"} {
		var v string
		for _, row := range tb.Rows {
			if row[0] == metric {
				v = row[1]
			}
		}
		f, err := strconv.ParseFloat(v, 64)
		if err != nil || f <= 0 {
			t.Errorf("%s = %q", metric, v)
		}
	}
}

func TestTableRendering(t *testing.T) {
	tb := Table{
		ID: "x", Ref: "r", Title: "t",
		Header: []string{"a", "b"},
		Rows:   [][]string{{"1", "2"}},
		Notes:  []string{"n"},
	}
	s := tb.String()
	for _, want := range []string{"x (r): t", "a", "1", "note: n"} {
		if !strings.Contains(s, want) {
			t.Errorf("rendering missing %q:\n%s", want, s)
		}
	}
}

func TestE14ObfuscationShape(t *testing.T) {
	tb, err := E14Obfuscation(Params{Seed: 14, Scale: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	get := func(row string, col int) float64 {
		for _, r := range tb.Rows {
			if r[0] == row {
				return parsePct(t, r[col])
			}
		}
		t.Fatalf("row %q missing", row)
		return 0
	}
	orig := get("original", 1)
	noise := get("noise", 1)
	shift := get("shift-mask", 1)
	mod := get("mod-mask", 1)
	if orig < 95 {
		t.Errorf("original SigRec accuracy %.1f%%", orig)
	}
	if noise < orig-3 {
		t.Errorf("noise moved SigRec: %.1f%% vs %.1f%%\n%s", noise, orig, tb)
	}
	if shift < orig-5 {
		t.Errorf("shift-mask not covered by the mask normal form: %.1f%% vs %.1f%%\n%s", shift, orig, tb)
	}
	if mod < orig-5 {
		t.Errorf("mod-mask not covered by the mask normal form: %.1f%% vs %.1f%%\n%s", mod, orig, tb)
	}
	// The adjacency-based heuristic baseline must crumble under noise.
	evOrig := get("original", 2)
	evNoise := get("noise", 2)
	if evNoise >= evOrig {
		t.Errorf("Eveem heuristics unaffected by noise: %.1f%% vs %.1f%%\n%s", evNoise, evOrig, tb)
	}
}

func TestTableMarkdown(t *testing.T) {
	tb := Table{
		ID: "e0", Ref: "ref", Title: "title",
		Header: []string{"a", "b"},
		Rows:   [][]string{{"1", "2"}, {"3"}},
		Notes:  []string{"caveat"},
	}
	md := tb.Markdown()
	for _, want := range []string{"## E0", "| a | b |", "| --- | --- |", "| 1 | 2 |", "> caveat"} {
		if !strings.Contains(md, want) {
			t.Errorf("markdown missing %q:\n%s", want, md)
		}
	}
}
