package core

import (
	"strconv"

	"sigrec/internal/evm"
)

// RuleID identifies one of the paper's 31 inference rules.
type RuleID int

// The rules, grouped exactly as in §3 of the paper: R1-R4 for CALLDATALOAD,
// R5-R10 and R23 for CALLDATACOPY, and the rest for other instructions.
const (
	R1  RuleID = iota + 1 // two consecutive CDLs: dynamic array/bytes/string
	R2                    // n-dim dynamic array, external
	R3                    // n-dim static array, external
	R4                    // default 32-byte value: uint256
	R5                    // dynamic sequence copied in a public function
	R6                    // 1-dim static array, public
	R7                    // 1-dim dynamic array, public
	R8                    // bytes/string, public (length rounded up to 32)
	R9                    // (n+1)-dim static array, public
	R10                   // (n+1)-dim dynamic array, public
	R11                   // uint(256-8x) via low AND mask
	R12                   // bytes(32-x) via high AND mask
	R13                   // int((x+1)*8) via SIGNEXTEND
	R14                   // bool via double ISZERO
	R15                   // int256 via signed operation
	R16                   // address: 20-byte mask without arithmetic
	R17                   // bytes: individual byte access
	R18                   // bytes32 via BYTE
	R19                   // struct member that is a nested array
	R20                   // Vyper bytecode detection
	R21                   // struct parameter
	R22                   // nested array parameter
	R23                   // Vyper fixed-size byte array/string copy
	R24                   // Vyper fixed-size list
	R25                   // Vyper basic type default
	R26                   // Vyper bytes[maxLen] byte access
	R27                   // Vyper address range check
	R28                   // Vyper int128 range check
	R29                   // Vyper decimal range check
	R30                   // Vyper bool range check
	R31                   // Vyper bytes32 via BYTE
)

// NumRules is the count of defined rules.
const NumRules = 31

// String implements fmt.Stringer. The defined rules' names come from a
// table, so naming one (a wide event's rule-fire keys) allocates nothing.
func (r RuleID) String() string {
	if r >= 0 && int(r) < len(ruleNames) {
		return ruleNames[r]
	}
	return "R" + strconv.Itoa(int(r))
}

var ruleNames = func() (names [NumRules + 1]string) {
	for i := range names {
		names[i] = "R" + strconv.Itoa(i)
	}
	return names
}()

// RuleStats counts rule applications (the paper's Fig. 19).
type RuleStats [NumRules + 1]uint64

// Add accumulates another stats vector.
func (s *RuleStats) Add(o RuleStats) {
	for i := range s {
		s[i] += o[i]
	}
}

// Count returns the number of applications of a rule.
func (s *RuleStats) Count(r RuleID) uint64 { return s[r] }

// Total returns the sum over all rules.
func (s *RuleStats) Total() uint64 {
	var sum uint64
	for i := 1; i <= NumRules; i++ {
		sum += s[i]
	}
	return sum
}

// hit records one application.
func (s *RuleStats) hit(r RuleID) { s[r]++ }

// Vyper range-check bound constants (§2.3.2). These are what rules R27-R30
// match against.
var (
	boundBool    = evm.WordFromUint64(2)
	boundAddress = evm.OneWord.Shl(evm.WordFromUint64(160))
	int128Min    = evm.OneWord.Shl(evm.WordFromUint64(127)).Neg()
	int128Max    = evm.OneWord.Shl(evm.WordFromUint64(127)).Sub(evm.OneWord)
	decimalScale = evm.WordFromUint64(10_000_000_000)
	decimalMin   = evm.OneWord.Shl(evm.WordFromUint64(127)).Mul(decimalScale).Neg()
	decimalMax   = evm.OneWord.Shl(evm.WordFromUint64(127)).Mul(decimalScale).Sub(evm.OneWord)
)

// profile summarizes the operations applied to one value (a basic parameter
// or an array/struct element); fine-grained inference reads it.
type profile struct {
	maskLowBytes  int  // AND with 2^(8m)-1 -> m
	maskHighBytes int  // AND with high-m-bytes mask -> m
	signExtendK   int  // SIGNEXTEND k -> k, -1 if absent
	doubleISZERO  bool // ISZERO(ISZERO(v))
	byteAccess    bool // BYTE applied
	signedOp      bool // SDIV/SMOD/SLT/SGT involvement
	arithmetic    bool // ADD/SUB/MUL/DIV/EXP involvement
	vyBool        bool // LT against 2
	vyAddress     bool // LT against 2^160
	vyInt128      bool // SLT/SGT against +-2^127
	vyDecimal     bool // SLT/SGT against the decimal bounds
}

func newProfile() profile { return profile{signExtendK: -1} }

// observe folds one op event into the profile, given a predicate that
// recognizes the value's atoms.
func (p *profile) observe(ev *Event, isValue func(*Expr) bool) {
	// direct: the operand IS the value (not just derived from it)
	direct := isValue
	contains := func(e *Expr) bool { return isValue(e) || anyCDataAtom(e, isValue) }
	switch ev.Op {
	case evm.AND:
		c, v := ev.Args[0], ev.Args[1]
		if c.Conc == nil {
			c, v = v, c
		}
		if c.Conc == nil || !direct(v) {
			return
		}
		if m, ok := lowMaskBytes(*c.Conc); ok {
			p.maskLowBytes = m
		} else if m, ok := highMaskBytes(*c.Conc); ok {
			p.maskHighBytes = m
		}
	case evm.SIGNEXTEND:
		k, v := ev.Args[0], ev.Args[1]
		if k.Conc != nil && direct(v) {
			if kv, ok := k.ConstUint(); ok && kv < 31 {
				p.signExtendK = int(kv)
			}
		}
	case evm.ISZERO:
		arg := ev.Args[0]
		if arg.Kind == KindApp && arg.Op == evm.ISZERO && direct(arg.Args[0]) {
			p.doubleISZERO = true
		}
	case evm.BYTE:
		if direct(ev.Args[1]) {
			p.byteAccess = true
		}
	case evm.SDIV, evm.SMOD:
		if contains(ev.Args[0]) || contains(ev.Args[1]) {
			p.signedOp = true
		}
	case evm.SLT, evm.SGT:
		v, b := ev.Args[0], ev.Args[1]
		if !direct(v) || b.Conc == nil {
			if contains(ev.Args[0]) || contains(ev.Args[1]) {
				p.signedOp = true
			}
			return
		}
		switch {
		case b.Conc.Eq(int128Min) || b.Conc.Eq(int128Max):
			p.vyInt128 = true
		case b.Conc.Eq(decimalMin) || b.Conc.Eq(decimalMax):
			p.vyDecimal = true
		default:
			p.signedOp = true
		}
	case evm.LT, evm.GT:
		v, b := ev.Args[0], ev.Args[1]
		if !direct(v) || b.Conc == nil {
			return
		}
		switch {
		case b.Conc.Eq(boundBool):
			p.vyBool = true
		case b.Conc.Eq(boundAddress):
			p.vyAddress = true
		}
	case evm.ADD, evm.SUB, evm.MUL, evm.DIV, evm.EXP, evm.MOD:
		// Arithmetic involvement; direct or via a prior mask.
		for _, a := range ev.Args {
			if direct(a) || maskedValue(a, isValue) {
				p.arithmetic = true
			}
		}
	}
}

// maskedValue reports whether e is AND(mask, value) or SIGNEXTEND(k, value)
// over the value, i.e. arithmetic on the masked value still counts as
// arithmetic on the parameter (the uint160-vs-address distinction).
func maskedValue(e *Expr, isValue func(*Expr) bool) bool {
	if e.Kind != KindApp {
		return false
	}
	switch e.Op {
	case evm.AND, evm.SIGNEXTEND:
		for _, a := range e.Args {
			if isValue(a) {
				return true
			}
		}
	}
	return false
}

// lowMaskBytes recognizes 2^(8m)-1 masks, returning m.
func lowMaskBytes(w evm.Word) (int, bool) {
	for m := 1; m <= 32; m++ {
		if w.Eq(evm.LowMask(uint(m * 8))) {
			return m, true
		}
	}
	return 0, false
}

// highMaskBytes recognizes masks with the top m bytes set, returning m.
func highMaskBytes(w evm.Word) (int, bool) {
	for m := 1; m < 32; m++ {
		if w.Eq(evm.HighMask(uint(m * 8))) {
			return m, true
		}
	}
	return 0, false
}

// hasVyperEvidence reports whether the profile carries any Vyper range-check
// signal (rule R20's per-value component).
func (p profile) hasVyperEvidence() bool {
	return p.vyBool || p.vyAddress || p.vyInt128 || p.vyDecimal
}
