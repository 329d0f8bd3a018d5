package experiments

import (
	"fmt"

	"sigrec/internal/abi"
	"sigrec/internal/baselines"
	"sigrec/internal/core"
	"sigrec/internal/corpus"
	"sigrec/internal/obfuscate"
)

// E14Obfuscation is the §7 ablation: accuracy of SigRec (and the Eveem
// heuristic baseline) against semantics-preserving instruction
// substitution. This extends the paper, which names the attack as future
// work: inert noise should not move semantics-based inference, and both
// mask rewritings, shift round trips and MOD by a power of two, are undone
// by the interner's mask normal form (internal/core maskForm).
func E14Obfuscation(p Params) (Table, error) {
	cfg := corpus.DefaultConfig(p.seed() + 14)
	cfg.Solidity = p.scaled(600)
	cfg.Vyper = 0
	cfg.AmbiguityRate = 0 // isolate the obfuscation effect
	c, err := corpus.Generate(cfg)
	if err != nil {
		return Table{}, err
	}
	eveem := &baselines.Eveem{}

	measure := func(transform func([]byte) ([]byte, error)) (sig, ev string, err error) {
		sigOK, evOK, total := 0, 0, 0
		for _, e := range c.Entries {
			code := e.Code
			if transform != nil {
				code, err = transform(e.Code)
				if err != nil {
					return "", "", err
				}
			}
			total++
			rec, _ := core.RecoverFunction(code, e.Sig.Selector())
			got := abi.Signature{Name: "f", Inputs: rec.Inputs}
			if got.EqualTypes(e.Sig) {
				sigOK++
			}
			if types, err := eveem.RecoverTypes(code, e.Sig.Selector()); err == nil && types == e.Sig.TypeList() {
				evOK++
			}
		}
		return pct(sigOK, total), pct(evOK, total), nil
	}

	t := Table{
		ID: "e14", Ref: "§7 (extension)",
		Title:  "robustness against semantics-preserving obfuscation",
		Header: []string{"bytecode", "SigRec", "Eveem heuristics"},
		Notes: []string{
			"noise: inert DUP/POP pairs between load and mask",
			"shift-mask: AND masks rewritten to SHL/SHR round trips (interned back into the AND)",
			"mod-mask: low masks rewritten to MOD 2^(8m) (interned back into the AND)",
		},
	}
	rows := []struct {
		label string
		level obfuscate.Level
	}{
		{"original", 0},
		{"noise", obfuscate.LevelNoise},
		{"shift-mask", obfuscate.LevelShiftMask},
		{"mod-mask", obfuscate.LevelModMask},
	}
	for _, r := range rows {
		var transform func([]byte) ([]byte, error)
		if r.level != 0 {
			lvl := r.level
			transform = func(code []byte) ([]byte, error) {
				return obfuscate.Obfuscate(code, lvl, p.seed())
			}
		}
		sigAcc, evAcc, err := measure(transform)
		if err != nil {
			return Table{}, fmt.Errorf("e14 %s: %w", r.label, err)
		}
		t.Rows = append(t.Rows, []string{r.label, sigAcc, evAcc})
	}
	return t, nil
}
