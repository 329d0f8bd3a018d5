package core

import (
	"context"
	"fmt"
	"maps"
	"slices"
	"testing"

	"sigrec/internal/abi"
	"sigrec/internal/corpus"
	"sigrec/internal/evm"
	"sigrec/internal/obfuscate"
	"sigrec/internal/solc"
	"sigrec/internal/vyperc"
)

// eip170Limit is the largest runtime bytecode a chain accepts (EIP-170).
const eip170Limit = 24576

// walkEntersBody runs the dispatcher walk over code and reports whether it
// read a parameter slot (a CALLDATALOAD at a constant offset >= 4): only a
// function body does that, so a walk that stops at selector tests never
// does.
func walkEntersBody(code []byte) bool {
	t := newTASE(evm.Disassemble(code), nil, defaultLimits())
	for _, ev := range t.run() {
		if ev.Kind != EvCDL {
			continue
		}
		if off, ok := ev.Off.ConstUint(); ok && off >= 4 {
			return true
		}
	}
	return false
}

// recoveredSelectors recovers code under Options{} and returns its
// selector set and the result.
func recoveredSelectors(t *testing.T, code []byte) (map[abi.Selector]bool, Result) {
	t.Helper()
	res, err := RecoverContext(context.Background(), code, Options{})
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	got := make(map[abi.Selector]bool, len(res.Functions))
	for _, f := range res.Functions {
		got[f.Selector] = true
	}
	return got, res
}

// sigSet returns the selector set of sigs.
func sigSet(sigs []abi.Signature) map[abi.Selector]bool {
	out := make(map[abi.Selector]bool, len(sigs))
	for _, s := range sigs {
		out[s.Selector()] = true
	}
	return out
}

// TestDispatcherWalkStaysInDispatcher: over the golden corpora (E1 seed 1
// and dataset 2 seed 1) the dispatcher walk never reads a parameter slot,
// that is, it stops at every selector test instead of walking the body
// behind it.
func TestDispatcherWalkStaysInDispatcher(t *testing.T) {
	e1, err := corpus.Generate(corpus.DefaultConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	synth, err := corpus.GenerateSynthesized(1)
	if err != nil {
		t.Fatal(err)
	}
	check := func(name string, codes [][]byte) {
		entered := 0
		for _, code := range codes {
			if walkEntersBody(code) {
				entered++
			}
		}
		if entered > 0 {
			t.Errorf("%s: the dispatcher walk entered a function body in %d of %d contracts", name, entered, len(codes))
		}
	}
	var e1Codes [][]byte
	for _, e := range e1.Entries {
		e1Codes = append(e1Codes, e.Code)
	}
	check("E1 seed 1", e1Codes)
	check("dataset 2 seed 1", distinctCodes(synth))
}

// TestDispatcherShapes: for every dispatcher shape the recovered selector
// set equals the declared one. EQ tests, plain or negated, stop the walk
// at function entries; a SUB/XOR compare is not a pruned test, so there
// the walk still forks into the bodies and reads the ids off the compares.
func TestDispatcherShapes(t *testing.T) {
	named := func(prefix string, n int, types string) []abi.Signature {
		sigs := make([]abi.Signature, n)
		for i := range sigs {
			sig, err := abi.ParseSignature(fmt.Sprintf("%s%d%s", prefix, i, types))
			if err != nil {
				t.Fatal(err)
			}
			sigs[i] = sig
		}
		return sigs
	}
	compileSolc := func(sigs []abi.Signature, v solc.Version) []byte {
		var fns []solc.Function
		for _, s := range sigs {
			fns = append(fns, solc.Function{Sig: s, Mode: solc.External})
		}
		code, err := solc.Compile(solc.Contract{Functions: fns}, solc.Config{Version: v})
		if err != nil {
			t.Fatal(err)
		}
		return code
	}

	linear := named("lin", 3, "(uint256,address)")
	binary := named("bin", 9, "(uint8[3])") // binary search from 6 functions on
	binaryCode := compileSolc(binary, solc.DefaultVersion())
	if !slices.ContainsFunc(evm.Disassemble(binaryCode).Instructions, func(ins evm.Instruction) bool { return ins.Op == evm.GT }) {
		t.Fatal("9-function contract compiled without binary-search splits")
	}
	legacy := compileSolc(linear, solc.LegacyVersion())
	shiftMasked, err := obfuscate.Obfuscate(legacy, obfuscate.LevelShiftMask, 1)
	if err != nil {
		t.Fatal(err)
	}
	vy := named("vy", 3, "(bool,int128)")
	var vyFns []vyperc.Function
	for _, s := range vy {
		vyFns = append(vyFns, vyperc.Function{Sig: s})
	}
	vyCode, err := vyperc.Compile(vyperc.Contract{Functions: vyFns}, vyperc.Config{Version: vyperc.DefaultVersion()})
	if err != nil {
		t.Fatal(err)
	}
	negated := named("neg", 4, "(uint256)")
	compares := named("cmp", 4, "(uint256)")

	cases := []struct {
		name         string
		code         []byte
		want         []abi.Signature
		entersBodies bool
	}{
		{"linear EQ ladder (SHR)", compileSolc(linear, solc.DefaultVersion()), linear, false},
		{"linear EQ ladder (DIV)", legacy, linear, false},
		{"shift-mask obfuscated", shiftMasked, linear, false},
		{"binary search", binaryCode, binary, false},
		{"vyper", vyCode, vy, false},
		{"negated ISZERO(EQ) ladder", handDispatcher(t, negated, negatedTest), negated, false},
		{"SUB/XOR compares", handDispatcher(t, compares, subXorTest), compares, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got, res := recoveredSelectors(t, c.code)
			if want := sigSet(c.want); !maps.Equal(got, want) {
				t.Errorf("recovered %d selectors %v, want the %d declared %v", len(got), got, len(want), want)
			}
			if res.Truncated {
				t.Error("result flagged truncated")
			}
			if entered := walkEntersBody(c.code); entered != c.entersBodies {
				t.Errorf("walk entered a function body: %v, want %v", entered, c.entersBodies)
			}
		})
	}
}

// negatedTest emits a selector test that jumps to next unless the
// selector (on the stack top) equals sel: ISZERO(EQ(sel, selector)).
func negatedTest(a *evm.Assembler, i int, sel abi.Selector, next evm.Label) {
	a.Dup(1).PushBytes(sel[:]).Op(evm.EQ).Op(evm.ISZERO)
	a.JumpI(next)
}

// subXorTest emits a compare that is non-zero, and so jumps to next, on a
// mismatch: SUB for even functions, XOR for odd ones.
func subXorTest(a *evm.Assembler, i int, sel abi.Selector, next evm.Label) {
	op := evm.SUB
	if i%2 == 1 {
		op = evm.XOR
	}
	a.Dup(1).PushBytes(sel[:]).Op(op)
	a.JumpI(next)
}

// handDispatcher assembles a contract whose dispatcher runs test for each
// function in turn; a function's body sits right behind its test and
// stores its one uint256 argument.
func handDispatcher(t *testing.T, sigs []abi.Signature, test func(a *evm.Assembler, i int, sel abi.Selector, next evm.Label)) []byte {
	t.Helper()
	a := evm.NewAssembler()
	a.Push(0).Op(evm.CALLDATALOAD).Push(0xe0).Op(evm.SHR)
	for i, s := range sigs {
		next := a.NewLabel()
		test(a, i, s.Selector(), next)
		a.Op(evm.POP)
		a.Push(4).Op(evm.CALLDATALOAD).Push(uint64(i)).Op(evm.SSTORE)
		a.Op(evm.STOP)
		a.Bind(next)
	}
	a.Op(evm.POP).Op(evm.STOP)
	code, err := a.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	return code
}

// TestLargeContractSelectors: contracts up to the EIP-170 size limit keep
// every selector under the default budgets. Each function is external
// (uint256, uint8[3]) behind binary-search dispatch; a walk through every
// body spends its step budget before it reaches the later selector tests.
func TestLargeContractSelectors(t *testing.T) {
	for _, n := range []int{160, 200, 240, 270} {
		t.Run(fmt.Sprint(n), func(t *testing.T) {
			var sigs []abi.Signature
			var fns []solc.Function
			for i := 0; i < n; i++ {
				sig, err := abi.ParseSignature(fmt.Sprintf("f%d(uint256,uint8[3])", i))
				if err != nil {
					t.Fatal(err)
				}
				sigs = append(sigs, sig)
				fns = append(fns, solc.Function{Sig: sig, Mode: solc.External})
			}
			code, err := solc.Compile(solc.Contract{Functions: fns}, solc.Config{Version: solc.DefaultVersion()})
			if err != nil {
				t.Fatal(err)
			}
			if len(code) > eip170Limit {
				t.Fatalf("%d functions compile to %d bytes, over the %d-byte limit", n, len(code), eip170Limit)
			}
			got, res := recoveredSelectors(t, code)
			if want := sigSet(sigs); !maps.Equal(got, want) {
				t.Errorf("%d bytes: recovered %d of %d selectors", len(code), len(got), len(want))
			}
			if res.Truncated {
				t.Errorf("%d bytes: result flagged truncated", len(code))
			}
		})
	}
}
