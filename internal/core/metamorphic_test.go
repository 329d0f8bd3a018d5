package core

import (
	"context"
	"fmt"
	"testing"

	"sigrec/internal/corpus"
	"sigrec/internal/obfuscate"
)

// TestMetamorphicObfuscation recovers every contract of E1 (seed 1) and
// dataset 2 (seed 1) before and after each semantics-preserving rewrite
// of internal/obfuscate, and requires the whole Result to render the same:
//
//   - LevelNoise inserts inert DUP1 POP / PUSH1 0 POP pairs after loads;
//   - LevelShiftMask turns AND masks, the dispatcher's selector mask
//     included, into SHL/SHR round trips;
//   - LevelModMask turns low AND masks into MOD by 2^(8m).
//
// Selectors, types, rule trails, language and truncation must all survive,
// which holds because the interner rewrites both mask shapes into the AND
// they replace (maskForm).
func TestMetamorphicObfuscation(t *testing.T) {
	e1, err := corpus.Generate(corpus.DefaultConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	synth, err := corpus.GenerateSynthesized(1)
	if err != nil {
		t.Fatal(err)
	}
	type contract struct {
		name string
		code []byte
	}
	var contracts []contract
	for i, e := range e1.Entries {
		contracts = append(contracts, contract{fmt.Sprintf("e1/%04d %s", i, dialect(e)), e.Code})
	}
	for i, code := range distinctCodes(synth) {
		contracts = append(contracts, contract{fmt.Sprintf("d2/%03d", i), code})
	}
	ctx := context.Background()
	levels := []obfuscate.Level{obfuscate.LevelNoise, obfuscate.LevelShiftMask, obfuscate.LevelModMask}
	diffs := make(map[obfuscate.Level]int)
	var first string
	for i, c := range contracts {
		want := renderResult(RecoverContext(ctx, c.code, Options{}))
		for _, level := range levels {
			obf, err := obfuscate.Obfuscate(c.code, level, int64(i))
			if err != nil {
				t.Fatalf("%s: %s obfuscation: %v", c.name, level, err)
			}
			if got := renderResult(RecoverContext(ctx, obf, Options{})); got != want {
				diffs[level]++
				if first == "" {
					first = fmt.Sprintf("%s under %s:\n%sunobfuscated:\n%s", c.name, level, got, want)
				}
			}
		}
	}
	if first != "" {
		t.Fatalf("over %d contracts, Results changed under noise %d, shift-mask %d, mod-mask %d times\nfirst: %s",
			len(contracts), diffs[obfuscate.LevelNoise], diffs[obfuscate.LevelShiftMask], diffs[obfuscate.LevelModMask], first)
	}
}
