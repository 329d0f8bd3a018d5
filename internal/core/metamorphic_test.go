package core

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"sigrec/internal/corpus"
	"sigrec/internal/obfuscate"
)

// TestMetamorphicObfuscation recovers every E1 contract (seed 1) before
// and after a semantics-preserving rewrite by internal/obfuscate and
// checks the relations each rewrite must keep:
//
//   - LevelNoise (inert DUP1 POP / PUSH1 0 POP pairs after loads): the
//     whole Result is unchanged.
//   - LevelShiftMask (AND masks become SHL/SHR round trips, the
//     dispatcher's selector mask included): the selector set is
//     unchanged, and each function whole-contract recovery returns equals
//     RecoverFunction on the same obfuscated bytes with the selector
//     given, so the dispatcher walk loses nothing the per-function path
//     sees.
func TestMetamorphicObfuscation(t *testing.T) {
	c, err := corpus.Generate(corpus.DefaultConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	selectors := func(r Result) [][4]byte {
		out := make([][4]byte, len(r.Functions))
		for i, f := range r.Functions {
			out[i] = f.Selector
		}
		slices.SortFunc(out, func(a, b [4]byte) int { return slices.Compare(a[:], b[:]) })
		return out
	}
	var noiseDiffs, lostAll, selDiffs, fnDiffs, checked int
	var firstFailure string
	fail := func(format string, args ...any) {
		if firstFailure == "" {
			firstFailure = fmt.Sprintf(format, args...)
		}
	}
	for i, e := range c.Entries {
		base, baseErr := RecoverContext(ctx, e.Code, Options{})
		want := renderResult(base, baseErr)

		noisy, err := obfuscate.Obfuscate(e.Code, obfuscate.LevelNoise, int64(i))
		if err != nil {
			t.Fatalf("entry %d: noise obfuscation: %v", i, err)
		}
		if res, err := RecoverContext(ctx, noisy, Options{}); renderResult(res, err) != want {
			noiseDiffs++
			fail("entry %d (%s) under noise:\n%s\nunobfuscated:\n%s", i, dialect(e), renderResult(res, err), want)
		}

		shifted, err := obfuscate.Obfuscate(e.Code, obfuscate.LevelShiftMask, int64(i))
		if err != nil {
			t.Fatalf("entry %d: shift-mask obfuscation: %v", i, err)
		}
		res, _ := RecoverContext(ctx, shifted, Options{})
		if len(res.Functions) == 0 && len(base.Functions) > 0 {
			lostAll++
		}
		if !slices.Equal(selectors(res), selectors(base)) {
			selDiffs++
			fail("entry %d (%s) under shift-mask: selectors %x, unobfuscated %x", i, dialect(e), selectors(res), selectors(base))
		}
		for _, f := range res.Functions {
			ref, _ := RecoverFunction(shifted, f.Selector)
			if got, want := renderFunction(f), renderFunction(ref); got != want {
				fnDiffs++
				fail("entry %d (%s) under shift-mask: RecoverContext gives %s, RecoverFunction %s", i, dialect(e), got, want)
			}
			checked++
		}
	}
	if firstFailure != "" {
		t.Fatalf("over %d contracts: %d Results changed under noise; under shift-mask %d selector sets changed (%d contracts lost every selector) and %d functions disagree with RecoverFunction\nfirst: %s",
			len(c.Entries), noiseDiffs, selDiffs, lostAll, fnDiffs, firstFailure)
	}
	if checked < len(c.Entries) {
		t.Fatalf("only %d shift-mask functions checked over %d contracts", checked, len(c.Entries))
	}
}
