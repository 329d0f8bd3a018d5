// Package evm implements the Ethereum Virtual Machine substrate used by
// SigRec: 256-bit machine words, the instruction set, a disassembler,
// basic-block recognition, and a concrete interpreter.
//
// The package is self-contained (standard library only). Word arithmetic is
// implemented on four 64-bit limbs and verified against math/big by property
// tests.
package evm

import (
	"encoding/hex"
	"errors"
	"fmt"
	"math/big"
	"math/bits"
	"strings"
)

// Word is a 256-bit EVM machine word stored as four little-endian 64-bit
// limbs: limb 0 holds the least significant 64 bits. The zero value is the
// number zero and is ready to use.
type Word struct {
	limbs [4]uint64
}

// Common word constants. These are values, not pointers, so callers cannot
// mutate shared state.
var (
	// ZeroWord is the number 0.
	ZeroWord = Word{}
	// OneWord is the number 1.
	OneWord = WordFromUint64(1)
	// MaxWord is 2^256 - 1.
	MaxWord = Word{limbs: [4]uint64{^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0)}}
)

// WordFromUint64 returns the word with the given low 64 bits.
func WordFromUint64(v uint64) Word {
	return Word{limbs: [4]uint64{v, 0, 0, 0}}
}

// WordFromBytes interprets b as a big-endian unsigned integer. Inputs longer
// than 32 bytes keep only the trailing 32 bytes, matching EVM PUSH semantics.
func WordFromBytes(b []byte) Word {
	if len(b) > 32 {
		b = b[len(b)-32:]
	}
	var w Word
	for i := 0; i < len(b); i++ {
		byteIdx := len(b) - 1 - i // distance from least significant byte
		limb := byteIdx / 8
		shift := uint(byteIdx%8) * 8
		w.limbs[limb] |= uint64(b[i]) << shift
	}
	return w
}

// WordFromBig converts a big.Int to a Word, truncating modulo 2^256.
// Negative inputs are converted to their two's-complement representation.
func WordFromBig(v *big.Int) Word {
	m := new(big.Int).Set(v)
	m.Mod(m, wordModulus())
	if m.Sign() < 0 {
		m.Add(m, wordModulus())
	}
	var w Word
	for i := 0; i < 4; i++ {
		w.limbs[i] = m.Uint64()
		m.Rsh(m, 64)
	}
	return w
}

// WordFromHex parses a hexadecimal string (optionally 0x-prefixed).
func WordFromHex(s string) (Word, error) {
	s = strings.TrimPrefix(s, "0x")
	if len(s) == 0 || len(s) > 64 {
		return Word{}, fmt.Errorf("evm: hex word %q: invalid length", s)
	}
	if len(s)%2 == 1 {
		s = "0" + s
	}
	b, err := hex.DecodeString(s)
	if err != nil {
		return Word{}, fmt.Errorf("evm: hex word: %w", err)
	}
	return WordFromBytes(b), nil
}

// MustWordFromHex is WordFromHex for constants known to be valid; it panics
// on malformed input and is intended for package-level initialization only.
func MustWordFromHex(s string) Word {
	w, err := WordFromHex(s)
	if err != nil {
		panic(err)
	}
	return w
}

func wordModulus() *big.Int {
	m := big.NewInt(1)
	return m.Lsh(m, 256)
}

// Bytes32 returns the big-endian 32-byte representation.
func (w Word) Bytes32() [32]byte {
	var out [32]byte
	for i := 0; i < 32; i++ {
		byteIdx := 31 - i
		limb := byteIdx / 8
		shift := uint(byteIdx%8) * 8
		out[i] = byte(w.limbs[limb] >> shift)
	}
	return out
}

// Bytes returns the minimal big-endian representation (no leading zeros,
// empty for zero).
func (w Word) Bytes() []byte {
	full := w.Bytes32()
	i := 0
	for i < 32 && full[i] == 0 {
		i++
	}
	out := make([]byte, 32-i)
	copy(out, full[i:])
	return out
}

// Big returns the unsigned value as a big.Int.
func (w Word) Big() *big.Int {
	v := new(big.Int)
	for i := 3; i >= 0; i-- {
		v.Lsh(v, 64)
		v.Or(v, new(big.Int).SetUint64(w.limbs[i]))
	}
	return v
}

// SignedBig interprets the word as a two's-complement signed integer.
func (w Word) SignedBig() *big.Int {
	v := w.Big()
	if w.Sign() < 0 {
		v.Sub(v, wordModulus())
	}
	return v
}

// Uint64 returns the low 64 bits and whether the word fits in 64 bits.
func (w Word) Uint64() (uint64, bool) {
	return w.limbs[0], w.limbs[1] == 0 && w.limbs[2] == 0 && w.limbs[3] == 0
}

// IsZero reports whether the word is zero.
func (w Word) IsZero() bool {
	return w.limbs[0]|w.limbs[1]|w.limbs[2]|w.limbs[3] == 0
}

// Sign returns -1 if the word is negative under two's complement, 0 if zero,
// and 1 otherwise.
func (w Word) Sign() int {
	if w.IsZero() {
		return 0
	}
	if w.limbs[3]>>63 == 1 {
		return -1
	}
	return 1
}

// Eq reports whether two words are equal.
func (w Word) Eq(o Word) bool { return w.limbs == o.limbs }

// Limbs returns the four 64-bit limbs, least significant first (for
// hashing a word without rendering it).
func (w Word) Limbs() [4]uint64 { return w.limbs }

// Cmp compares unsigned values: -1 if w < o, 0 if equal, 1 if w > o.
func (w Word) Cmp(o Word) int {
	for i := 3; i >= 0; i-- {
		switch {
		case w.limbs[i] < o.limbs[i]:
			return -1
		case w.limbs[i] > o.limbs[i]:
			return 1
		}
	}
	return 0
}

// Scmp compares as two's-complement signed values.
func (w Word) Scmp(o Word) int {
	ws, os := w.Sign() < 0, o.Sign() < 0
	switch {
	case ws && !os:
		return -1
	case !ws && os:
		return 1
	default:
		return w.Cmp(o)
	}
}

// Hex returns the minimal 0x-prefixed hexadecimal representation.
func (w Word) Hex() string {
	b := w.Bytes()
	if len(b) == 0 {
		return "0x0"
	}
	return "0x" + strings.TrimLeft(hex.EncodeToString(b), "0")
}

// String implements fmt.Stringer.
func (w Word) String() string { return w.Hex() }

// Add returns w + o mod 2^256.
func (w Word) Add(o Word) Word {
	var out Word
	var carry uint64
	for i := 0; i < 4; i++ {
		out.limbs[i], carry = addCarry(w.limbs[i], o.limbs[i], carry)
	}
	return out
}

func addCarry(a, b, c uint64) (sum, carry uint64) {
	s, c1 := bits.Add64(a, b, c)
	return s, c1
}

// Sub returns w - o mod 2^256.
func (w Word) Sub(o Word) Word {
	var out Word
	var borrow uint64
	for i := 0; i < 4; i++ {
		out.limbs[i], borrow = bits.Sub64(w.limbs[i], o.limbs[i], borrow)
	}
	return out
}

// Neg returns the two's-complement negation.
func (w Word) Neg() Word { return ZeroWord.Sub(w) }

// Mul returns w * o mod 2^256.
func (w Word) Mul(o Word) Word {
	var out Word
	for i := 0; i < 4; i++ {
		if w.limbs[i] == 0 {
			continue
		}
		var carry uint64
		for j := 0; i+j < 4; j++ {
			hi, lo := bits.Mul64(w.limbs[i], o.limbs[j])
			var c1, c2 uint64
			out.limbs[i+j], c1 = bits.Add64(out.limbs[i+j], lo, 0)
			out.limbs[i+j], c2 = bits.Add64(out.limbs[i+j], carry, 0)
			carry = hi + c1 + c2
		}
	}
	return out
}

// Div returns the unsigned quotient w / o, or zero when o is zero (EVM DIV
// semantics).
func (w Word) Div(o Word) Word {
	if o.IsZero() {
		return ZeroWord
	}
	if w.Cmp(o) < 0 {
		return ZeroWord
	}
	// Fast path: both fit in 64 bits.
	if wv, ok := w.Uint64(); ok {
		ov, _ := o.Uint64()
		return WordFromUint64(wv / ov)
	}
	q, _ := divmod(w, o)
	return q
}

// Mod returns the unsigned remainder w % o, or zero when o is zero.
func (w Word) Mod(o Word) Word {
	if o.IsZero() {
		return ZeroWord
	}
	if wv, ok := w.Uint64(); ok {
		if ov, ok2 := o.Uint64(); ok2 {
			return WordFromUint64(wv % ov)
		}
		return w
	}
	_, r := divmod(w, o)
	return r
}

// log2IfPow2 returns k when w == 2^k (exactly one bit set).
func (w Word) log2IfPow2() (uint, bool) {
	var k uint
	seen := false
	for i, l := range w.limbs {
		if l == 0 {
			continue
		}
		if seen || l&(l-1) != 0 {
			return 0, false
		}
		seen = true
		k = uint(i*64 + bits.TrailingZeros64(l))
	}
	return k, seen
}

// divmod computes the unsigned quotient and remainder. o must be nonzero.
// Real contracts divide almost exclusively by powers of two (type masks,
// alignment) or small constants (fixed-point scaling), so those cases run
// limb-native; the general 256-by-256 case falls back to big.Int.
func divmod(w, o Word) (q, r Word) {
	if k, ok := o.log2IfPow2(); ok {
		return w.shrUint(k), w.And(LowMask(k))
	}
	if ov, ok := o.Uint64(); ok {
		return divmod64(w, ov)
	}
	qb, rb := new(big.Int).QuoRem(w.Big(), o.Big(), new(big.Int))
	return WordFromBig(qb), WordFromBig(rb)
}

// divmod64 divides by a 64-bit divisor limb by limb, most significant
// first. The running remainder is always < d, so bits.Div64's quotient
// fits a limb and the intrinsic never panics. d must be nonzero.
func divmod64(w Word, d uint64) (q, r Word) {
	var rem uint64
	for i := 3; i >= 0; i-- {
		q.limbs[i], rem = bits.Div64(rem, w.limbs[i], d)
	}
	return q, WordFromUint64(rem)
}

// SDiv returns the signed quotient per EVM SDIV (truncated toward zero),
// with SDiv(minInt256, -1) == minInt256 and division by zero yielding zero.
// Sign-adjusting around the unsigned division covers the overflow case for
// free: |minInt256| is 2^255, whose quotient bit pattern is already the
// two's-complement answer.
func (w Word) SDiv(o Word) Word {
	if o.IsZero() {
		return ZeroWord
	}
	wneg, oneg := w.Sign() < 0, o.Sign() < 0
	a, b := w, o
	if wneg {
		a = a.Neg()
	}
	if oneg {
		b = b.Neg()
	}
	q := a.Div(b)
	if wneg != oneg {
		q = q.Neg()
	}
	return q
}

// SMod returns the signed remainder per EVM SMOD (sign follows dividend).
func (w Word) SMod(o Word) Word {
	if o.IsZero() {
		return ZeroWord
	}
	a, b := w, o
	wneg := w.Sign() < 0
	if wneg {
		a = a.Neg()
	}
	if o.Sign() < 0 {
		b = b.Neg()
	}
	r := a.Mod(b)
	if wneg {
		r = r.Neg()
	}
	return r
}

// AddMod returns (w + o) % m with intermediate precision, zero if m is zero.
func (w Word) AddMod(o, m Word) Word {
	if m.IsZero() {
		return ZeroWord
	}
	if k, ok := m.log2IfPow2(); ok {
		// 2^256 ≡ 0 (mod 2^k), so masking the wrapped sum is exact even
		// when w+o overflows 256 bits.
		return w.Add(o).And(LowMask(k))
	}
	if mv, ok := m.Uint64(); ok {
		_, wr := divmod64(w, mv)
		_, orr := divmod64(o, mv)
		a, b := wr.limbs[0], orr.limbs[0]
		s := a + b
		// Both remainders are < mv, so at most one subtraction corrects
		// the sum — including when it wrapped uint64 (s < a).
		if s < a || s >= mv {
			s -= mv
		}
		return WordFromUint64(s)
	}
	s := new(big.Int).Add(w.Big(), o.Big())
	return WordFromBig(s.Mod(s, m.Big()))
}

// MulMod returns (w * o) % m with intermediate precision, zero if m is zero.
func (w Word) MulMod(o, m Word) Word {
	if m.IsZero() {
		return ZeroWord
	}
	if k, ok := m.log2IfPow2(); ok {
		return w.Mul(o).And(LowMask(k))
	}
	if mv, ok := m.Uint64(); ok {
		_, wr := divmod64(w, mv)
		_, orr := divmod64(o, mv)
		// Both factors are < mv, so the 128-bit product's high half is
		// < mv and bits.Div64 applies directly.
		hi, lo := bits.Mul64(wr.limbs[0], orr.limbs[0])
		_, rem := bits.Div64(hi, lo, mv)
		return WordFromUint64(rem)
	}
	p := new(big.Int).Mul(w.Big(), o.Big())
	return WordFromBig(p.Mod(p, m.Big()))
}

// Exp returns w^o mod 2^256, by single shift for power-of-two bases and
// MSB-first square-and-multiply otherwise (Mul already reduces mod 2^256).
func (w Word) Exp(o Word) Word {
	if k, ok := w.log2IfPow2(); ok {
		if k == 0 {
			return OneWord // 1^o
		}
		ev, fits := o.Uint64()
		if !fits || ev >= 256 || uint(ev)*k >= 256 {
			return ZeroWord
		}
		return OneWord.shlUint(uint(ev) * k)
	}
	hb := -1
	for i := 3; i >= 0; i-- {
		if o.limbs[i] != 0 {
			hb = i*64 + 63 - bits.LeadingZeros64(o.limbs[i])
			break
		}
	}
	if hb < 0 {
		return OneWord // w^0
	}
	result := OneWord
	for i := hb; i >= 0; i-- {
		result = result.Mul(result)
		if o.Bit(uint(i)) {
			result = result.Mul(w)
		}
	}
	return result
}

// SignExtend implements EVM SIGNEXTEND: k selects the byte position of the
// sign bit (0 = lowest byte); bytes above position k are filled with the
// sign. If k >= 31 the word is returned unchanged.
func (w Word) SignExtend(k Word) Word {
	kv, ok := k.Uint64()
	if !ok || kv >= 31 {
		return w
	}
	bitPos := kv*8 + 7
	signBit := w.Bit(uint(bitPos))
	out := w
	for b := bitPos + 1; b < 256; b++ {
		out = out.SetBit(uint(b), signBit)
	}
	return out
}

// Bit returns the bit at position i (0 = least significant).
func (w Word) Bit(i uint) bool {
	if i >= 256 {
		return false
	}
	return w.limbs[i/64]>>(i%64)&1 == 1
}

// SetBit returns a copy with bit i set to v.
func (w Word) SetBit(i uint, v bool) Word {
	if i >= 256 {
		return w
	}
	out := w
	if v {
		out.limbs[i/64] |= 1 << (i % 64)
	} else {
		out.limbs[i/64] &^= 1 << (i % 64)
	}
	return out
}

// Byte implements EVM BYTE: returns byte i of the word counting from the
// most significant (i=0) end; zero when i >= 32.
func (w Word) Byte(i Word) Word {
	iv, ok := i.Uint64()
	if !ok || iv >= 32 {
		return ZeroWord
	}
	b := w.Bytes32()
	return WordFromUint64(uint64(b[iv]))
}

// And returns the bitwise AND.
func (w Word) And(o Word) Word {
	var out Word
	for i := range out.limbs {
		out.limbs[i] = w.limbs[i] & o.limbs[i]
	}
	return out
}

// Or returns the bitwise OR.
func (w Word) Or(o Word) Word {
	var out Word
	for i := range out.limbs {
		out.limbs[i] = w.limbs[i] | o.limbs[i]
	}
	return out
}

// Xor returns the bitwise XOR.
func (w Word) Xor(o Word) Word {
	var out Word
	for i := range out.limbs {
		out.limbs[i] = w.limbs[i] ^ o.limbs[i]
	}
	return out
}

// Not returns the bitwise complement.
func (w Word) Not() Word {
	var out Word
	for i := range out.limbs {
		out.limbs[i] = ^w.limbs[i]
	}
	return out
}

// Shl returns w << n mod 2^256 (zero when n >= 256).
func (w Word) Shl(n Word) Word {
	nv, ok := n.Uint64()
	if !ok || nv >= 256 {
		return ZeroWord
	}
	return w.shlUint(uint(nv))
}

func (w Word) shlUint(n uint) Word {
	limbShift, bitShift := n/64, n%64
	var out Word
	for i := 3; i >= 0; i-- {
		src := i - int(limbShift)
		if src < 0 {
			continue
		}
		out.limbs[i] = w.limbs[src] << bitShift
		if bitShift > 0 && src > 0 {
			out.limbs[i] |= w.limbs[src-1] >> (64 - bitShift)
		}
	}
	return out
}

// Shr returns the logical right shift w >> n (zero when n >= 256).
func (w Word) Shr(n Word) Word {
	nv, ok := n.Uint64()
	if !ok || nv >= 256 {
		return ZeroWord
	}
	return w.shrUint(uint(nv))
}

func (w Word) shrUint(n uint) Word {
	limbShift, bitShift := n/64, n%64
	var out Word
	for i := 0; i < 4; i++ {
		src := i + int(limbShift)
		if src > 3 {
			continue
		}
		out.limbs[i] = w.limbs[src] >> bitShift
		if bitShift > 0 && src < 3 {
			out.limbs[i] |= w.limbs[src+1] << (64 - bitShift)
		}
	}
	return out
}

// Sar returns the arithmetic right shift (sign-filling).
func (w Word) Sar(n Word) Word {
	neg := w.Sign() < 0
	nv, ok := n.Uint64()
	if !ok || nv >= 256 {
		if neg {
			return MaxWord
		}
		return ZeroWord
	}
	out := w.shrUint(uint(nv))
	if neg && nv > 0 {
		// Fill the vacated high bits with ones.
		fill := MaxWord.shlUint(256 - uint(nv))
		out = out.Or(fill)
	}
	return out
}

// Lt returns 1 if w < o (unsigned), else 0, as a Word (EVM comparison result).
func (w Word) Lt(o Word) Word { return boolWord(w.Cmp(o) < 0) }

// Gt returns 1 if w > o (unsigned), else 0.
func (w Word) Gt(o Word) Word { return boolWord(w.Cmp(o) > 0) }

// Slt returns 1 if w < o (signed), else 0.
func (w Word) Slt(o Word) Word { return boolWord(w.Scmp(o) < 0) }

// Sgt returns 1 if w > o (signed), else 0.
func (w Word) Sgt(o Word) Word { return boolWord(w.Scmp(o) > 0) }

// EqWord returns 1 if w == o, else 0.
func (w Word) EqWord(o Word) Word { return boolWord(w.Eq(o)) }

// IsZeroWord returns 1 if w == 0, else 0.
func (w Word) IsZeroWord() Word { return boolWord(w.IsZero()) }

func boolWord(b bool) Word {
	if b {
		return OneWord
	}
	return ZeroWord
}

// LowMask returns the word with the low n bits set (n in [0,256]).
func LowMask(n uint) Word {
	switch {
	case n == 0:
		return ZeroWord
	case n >= 256:
		return MaxWord
	default:
		return MaxWord.shrUint(256 - n)
	}
}

// HighMask returns the word with the high n bits set (n in [0,256]).
func HighMask(n uint) Word {
	switch {
	case n == 0:
		return ZeroWord
	case n >= 256:
		return MaxWord
	default:
		return MaxWord.shlUint(256 - n)
	}
}

// ErrWordOverflow reports a conversion that does not fit the target width.
var ErrWordOverflow = errors.New("evm: word does not fit target width")

// ToUint64 converts to uint64, failing when the value exceeds 64 bits.
func (w Word) ToUint64() (uint64, error) {
	v, ok := w.Uint64()
	if !ok {
		return 0, ErrWordOverflow
	}
	return v, nil
}
