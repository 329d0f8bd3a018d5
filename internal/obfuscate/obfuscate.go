// Package obfuscate rewrites EVM bytecode with semantics-preserving
// instruction substitutions, the attack the paper's §7 anticipates: "a
// typical obfuscation technique is replacing the instruction sequence for
// accessing parameters ... with a different instruction sequence with the
// same semantics".
//
// Three levels are provided, chosen to probe different layers of SigRec:
//
//   - LevelNoise inserts inert instruction pairs between the load and its
//     mask. It breaks adjacency-based pattern matchers (the Eveem-class
//     heuristics) but not semantics-based inference.
//   - LevelShiftMask replaces AND masks with equivalent SHL/SHR (or
//     SHR/SHL) round trips.
//   - LevelModMask replaces low AND masks with MOD by 2^(8m).
//
// SigRec's interner rewrites both mask shapes back into the AND they
// replace, so neither level moves what it recovers.
//
// Rewrites change instruction offsets, so jump targets are remapped: the
// rewriter tracks old-to-new JUMPDEST positions and patches every PUSH2
// whose immediate named an old JUMPDEST. This matches the code the
// in-repo compilers emit (all jump targets are PUSH2); foreign bytecode
// with computed jumps is rejected.
package obfuscate

import (
	"errors"
	"fmt"
	"math/rand"

	"sigrec/internal/evm"
)

// Level selects the rewrite aggressiveness.
type Level int

// Obfuscation levels.
const (
	// LevelNoise inserts inert pairs (PUSH 0; POP and DUP1; POP).
	LevelNoise Level = iota + 1
	// LevelShiftMask rewrites AND masks into shift round trips.
	LevelShiftMask
	// LevelModMask rewrites low AND masks into MOD by a power of 256.
	LevelModMask
)

// String implements fmt.Stringer.
func (l Level) String() string {
	switch l {
	case LevelNoise:
		return "noise"
	case LevelShiftMask:
		return "shift-mask"
	case LevelModMask:
		return "mod-mask"
	default:
		return fmt.Sprintf("level(%d)", int(l))
	}
}

// ErrUnsupported reports bytecode the rewriter cannot safely transform.
var ErrUnsupported = errors.New("obfuscate: unsupported bytecode shape")

// Obfuscate rewrites the bytecode at the given level. The result is
// semantically equivalent on every input (verified by differential tests).
func Obfuscate(code []byte, level Level, seed int64) ([]byte, error) {
	program := evm.Disassemble(code)
	r := rand.New(rand.NewSource(seed))

	// Pass 1: build the rewritten instruction stream, remembering (a) the
	// new offset of every old instruction and (b) patch sites for PUSH2
	// jump immediates.
	var out []byte
	newPos := make(map[uint64]uint64, len(program.Instructions))
	type patchSite struct {
		outOff uint64 // offset of the 2 immediate bytes in out
		oldPC  uint64 // old target
	}
	var patches []patchSite

	emit := func(bs ...byte) { out = append(out, bs...) }
	ins := program.Instructions
	for i := 0; i < len(ins); i++ {
		cur := ins[i]
		newPos[cur.PC] = uint64(len(out))

		// Mask rewrites consume the PUSH+AND pair.
		if level == LevelShiftMask || level == LevelModMask {
			if i+1 < len(ins) && ins[i+1].Op == evm.AND && cur.Op.IsPush() {
				if m, lowOK := lowMaskBytes(cur.ArgBytes); lowOK && m < 32 {
					if level == LevelShiftMask {
						emitShiftRoundTrip(&out, 256-8*m, false)
					} else {
						emitModMask(&out, m)
					}
					newPos[ins[i+1].PC] = uint64(len(out)) - 1
					i++ // swallow the AND
					continue
				}
				if m, highOK := highMaskBytes(cur.ArgBytes); highOK && level == LevelShiftMask {
					emitShiftRoundTrip(&out, 256-8*m, true)
					newPos[ins[i+1].PC] = uint64(len(out)) - 1
					i++
					continue
				}
			}
		}

		switch {
		case cur.Op == evm.PUSH2:
			// Potential jump-target immediate: copy and record for patching.
			emit(byte(evm.PUSH2))
			patches = append(patches, patchSite{
				outOff: uint64(len(out)),
				oldPC:  uint64(cur.ArgBytes[0])<<8 | uint64(cur.ArgBytes[1]),
			})
			emit(cur.ArgBytes...)
		case cur.Op.IsPush():
			emit(byte(cur.Op))
			emit(cur.ArgBytes...)
		default:
			emit(byte(cur.Op))
		}

		// Noise after value-producing instructions (never between a PUSH2
		// and its JUMP/JUMPI consumer, which must stay adjacent only for
		// readability -- semantics tolerate separation, but keep it tidy).
		if level == LevelNoise && cur.Op == evm.CALLDATALOAD && r.Intn(2) == 0 {
			// An inert stack round trip between the load and its mask.
			emit(byte(evm.DUP1), byte(evm.POP))
			emit(byte(evm.PUSH1), 0x00, byte(evm.POP))
		}
	}

	// Pass 2: patch PUSH2 immediates that named old JUMPDEST positions.
	for _, p := range patches {
		idx, ok := program.IndexOf(p.oldPC)
		if !ok || program.Instructions[idx].Op != evm.JUMPDEST {
			continue // a data constant, not a jump target
		}
		np, ok := newPos[p.oldPC]
		if !ok {
			return nil, fmt.Errorf("%w: lost jump target %#x", ErrUnsupported, p.oldPC)
		}
		if np > 0xffff {
			return nil, fmt.Errorf("%w: rewritten target %#x exceeds PUSH2", ErrUnsupported, np)
		}
		out[p.outOff] = byte(np >> 8)
		out[p.outOff+1] = byte(np)
	}
	return out, nil
}

// emitShiftRoundTrip emits the mask-equivalent shift pair for a value on
// the stack top: (v<<s)>>s for low masks, (v>>s)<<s for high masks.
func emitShiftRoundTrip(out *[]byte, shift int, high bool) {
	push := func() {
		if shift < 256 {
			*out = append(*out, byte(evm.PUSH2), byte(shift>>8), byte(shift))
		}
	}
	first, second := evm.SHL, evm.SHR
	if high {
		first, second = evm.SHR, evm.SHL
	}
	push()
	*out = append(*out, byte(first))
	push()
	*out = append(*out, byte(second))
}

// emitModMask emits v % 2^(8m) for a value on the stack top.
func emitModMask(out *[]byte, m int) {
	// PUSH(2^(8m)) = 0x01 followed by m zero bytes.
	imm := make([]byte, m+1)
	imm[0] = 0x01
	op, _ := evm.PushOp(len(imm))
	*out = append(*out, byte(op))
	*out = append(*out, imm...)
	// Stack: [v, 2^(8m)]; MOD computes top % second = 2^(8m) % v -- wrong
	// order, so swap first.
	*out = append(*out, byte(evm.SWAP1), byte(evm.MOD))
}

func lowMaskBytes(raw []byte) (int, bool) {
	if len(raw) == 0 || len(raw) > 32 {
		return 0, false
	}
	for _, b := range raw {
		if b != 0xff {
			return 0, false
		}
	}
	return len(raw), true
}

func highMaskBytes(raw []byte) (int, bool) {
	if len(raw) != 32 {
		return 0, false
	}
	n := 0
	for n < 32 && raw[n] == 0xff {
		n++
	}
	if n == 0 || n == 32 {
		return 0, false
	}
	for _, b := range raw[n:] {
		if b != 0 {
			return 0, false
		}
	}
	return n, true
}
