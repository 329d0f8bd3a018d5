package obfuscate

import (
	"bytes"
	"math/rand"
	"testing"

	"sigrec/internal/abi"
	"sigrec/internal/core"
	"sigrec/internal/evm"
	"sigrec/internal/solc"
)

func compile(t *testing.T, sigStr string, mode solc.Mode) ([]byte, abi.Signature) {
	t.Helper()
	sig, err := abi.ParseSignature(sigStr)
	if err != nil {
		t.Fatal(err)
	}
	code, err := solc.Compile(solc.Contract{Functions: []solc.Function{{Sig: sig, Mode: mode}}},
		solc.Config{Version: solc.DefaultVersion()})
	if err != nil {
		t.Fatal(err)
	}
	return code, sig
}

// TestSemanticsPreserved is the differential check: the obfuscated contract
// must behave identically to the original on random valid inputs --
// identical storage effects, identical revert behavior.
func TestSemanticsPreserved(t *testing.T) {
	sigs := []string{
		"f(uint8)", "f(uint32,address)", "f(bytes4)", "f(bool,uint256)",
		"f(uint256[])", "f(bytes)", "f(uint8[3])", "f(int64)",
	}
	for _, sigStr := range sigs {
		for _, mode := range []solc.Mode{solc.Public, solc.External} {
			code, sig := compile(t, sigStr, mode)
			for _, level := range []Level{LevelNoise, LevelShiftMask, LevelModMask} {
				obf, err := Obfuscate(code, level, 7)
				if err != nil {
					t.Fatalf("%s %s %s: %v", sigStr, mode, level, err)
				}
				if bytes.Equal(obf, code) && level != LevelModMask {
					// ModMask may be a no-op for mask-free signatures.
					if sigStr == "f(uint8)" {
						t.Errorf("%s %s: obfuscation was a no-op", sigStr, level)
					}
				}
				r := rand.New(rand.NewSource(99))
				for trial := 0; trial < 5; trial++ {
					vals := make([]abi.Value, len(sig.Inputs))
					for i, ty := range sig.Inputs {
						vals[i] = abi.RandomValue(r, ty)
					}
					data, err := abi.EncodeCall(sig, vals)
					if err != nil {
						t.Fatal(err)
					}
					origIn := evm.NewInterpreter(code)
					obfIn := evm.NewInterpreter(obf)
					origRes := origIn.Execute(evm.CallContext{CallData: data})
					obfRes := obfIn.Execute(evm.CallContext{CallData: data})
					if origRes.Reverted != obfRes.Reverted {
						t.Fatalf("%s %s %s: revert divergence (%v vs %v / %v)",
							sigStr, mode, level, origRes.Reverted, obfRes.Reverted, obfRes.Err)
					}
					origStore := origIn.Storage()
					obfStore := obfIn.Storage()
					if len(origStore) != len(obfStore) {
						t.Fatalf("%s %s %s: storage size diverged", sigStr, mode, level)
					}
					for k, v := range origStore {
						if !obfStore[k].Eq(v) {
							t.Fatalf("%s %s %s: storage[%v] %v vs %v",
								sigStr, mode, level, k, v, obfStore[k])
						}
					}
				}
			}
		}
	}
}

// recoveredUnder obfuscates each signature's contract at level and checks
// that SigRec still recovers the original parameter types.
func recoveredUnder(t *testing.T, level Level, seed int64, sigs ...string) {
	t.Helper()
	for _, sigStr := range sigs {
		code, sig := compile(t, sigStr, solc.External)
		obf, err := Obfuscate(code, level, seed)
		if err != nil {
			t.Fatal(err)
		}
		rec, _ := core.RecoverFunction(obf, sig.Selector())
		got := abi.Signature{Name: "f", Inputs: rec.Inputs}
		if !got.EqualTypes(sig) {
			t.Errorf("%s under %s: recovered %s", sigStr, level, got.TypeList())
		}
	}
}

// TestShiftMaskStillRecovered: the interner rewrites a shift round trip
// into the AND mask it replaces, so the fine rules still fire.
func TestShiftMaskStillRecovered(t *testing.T) {
	recoveredUnder(t, LevelShiftMask, 3, "f(uint8)", "f(uint32,address)", "f(bytes4)")
}

// TestNoiseDoesNotAffectSigRec: inert instruction insertion must not move
// semantics-based inference.
func TestNoiseDoesNotAffectSigRec(t *testing.T) {
	recoveredUnder(t, LevelNoise, 5, "f(uint8)", "f(bytes)", "f(uint256[])")
}

// TestModMaskDefeatsFineRules: MOD masking takes every low AND mask out of
// the bytecode, which a purely syntactic AND rule cannot see through; the
// interner rewrites x % 2^(8m) into the AND mask, so the types survive.
func TestModMaskDefeatsFineRules(t *testing.T) {
	mod := []byte{byte(evm.SWAP1), byte(evm.MOD)}
	code, _ := compile(t, "f(uint8)", solc.External)
	obf, err := Obfuscate(code, LevelModMask, 3)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Count(obf, mod) <= bytes.Count(code, mod) {
		t.Fatal("mod-mask inserted no MOD")
	}
	recoveredUnder(t, LevelModMask, 3, "f(uint8)", "f(uint32,address)")
}

// TestJumpTargetRemap verifies control flow survives offset shifts.
func TestJumpTargetRemap(t *testing.T) {
	code, sig := compile(t, "f(uint256[3])", solc.External) // loops: many jumps
	obf, err := Obfuscate(code, LevelNoise, 11)
	if err != nil {
		t.Fatal(err)
	}
	if len(obf) == len(code) {
		t.Skip("no noise inserted at this seed")
	}
	r := rand.New(rand.NewSource(1))
	vals := []abi.Value{abi.RandomValue(r, sig.Inputs[0])}
	data, _ := abi.EncodeCall(sig, vals)
	res := evm.NewInterpreter(obf).Execute(evm.CallContext{CallData: data})
	if res.Reverted {
		t.Fatalf("obfuscated loop contract reverted: %v", res.Err)
	}
}
