package core

import (
	"slices"

	"sigrec/internal/evm"
)

// ExtractSelectors recovers the function ids a contract dispatches on by
// symbolically executing the dispatcher (§2.2 of the paper): every EQ,
// SUB or XOR of a 4-byte constant with an expression derived from
// CALLDATALOAD(0) via DIV/SHR/AND is a dispatch test (SUB and XOR are
// zero exactly on a match). The walk stops at function entries: it
// follows an EQ test's branch to the next test and never enters the body
// behind it.
func ExtractSelectors(program *Program) [][4]byte {
	t := newTASE(program, nil, defaultLimits()) // selWord nil: the selector stays symbolic
	sels := extractSelectors(&t)
	meterTASE(&t.taseCounts)
	return sels
}

// extractSelectors runs the dispatcher walk on t, a fresh engine whose
// selector is symbolic, and returns the selectors it dispatches on. The
// walk forks at every symbolic branch except an EQ selector test (see
// selectorTest), so it covers binary-search splits and the fallback but
// leaves function bodies to the per-selector explorations. The caller
// annotates and folds the finished engine (annotateTASE, and finishTASE or
// meterTASE); t.trunc reports a truncated walk, whose selector list may
// be incomplete. The caller builds the engine so that it can stay on the
// caller's stack.
func extractSelectors(t *tase) [][4]byte {
	events := t.run()
	var out [][4]byte
	for _, ev := range events {
		if ev.Kind != EvOp {
			continue
		}
		switch ev.Op {
		case evm.EQ, evm.SUB, evm.XOR:
		default:
			continue
		}
		id, ok := selectorCompare(ev.Args)
		if ok && !slices.Contains(out, id) {
			out = append(out, id)
		}
	}
	t.it.recycle() // only selector bytes leave the dispatcher walk
	t.it = nil
	return out
}

// selectorCompare decodes the operands of a dispatch comparison: a
// constant that fits in four bytes against a selector expression, in
// either order. It returns the constant as a function id.
func selectorCompare(args []*Expr) ([4]byte, bool) {
	if len(args) != 2 {
		return [4]byte{}, false
	}
	c, sel := args[0], args[1]
	if c.Conc == nil {
		c, sel = sel, c
	}
	v, ok := c.ConstUint()
	if !ok || v > 0xffffffff || !isSelectorExpr(sel) {
		return [4]byte{}, false
	}
	return [4]byte{byte(v >> 24), byte(v >> 16), byte(v >> 8), byte(v)}, true
}

// selectorTest reports whether a symbolic JUMPI condition is a
// dispatcher's selector test, EQ(id, selector) or its negation
// ISZERO(EQ(id, selector)), and if so whether the jump (rather than the
// fall-through) leads on to the next test. The other side is the
// function's entry.
func selectorTest(cond *Expr) (jumpToNext, ok bool) {
	if cond.Kind == KindApp && cond.Op == evm.ISZERO {
		cond, jumpToNext = cond.Args[0], true
	}
	if cond.Kind != KindApp || cond.Op != evm.EQ {
		return false, false
	}
	_, ok = selectorCompare(cond.Args)
	return jumpToNext, ok
}

// isSelectorExpr recognizes expressions that extract the high 4 bytes of
// CALLDATALOAD(0): any composition of DIV, SHR and AND over that load and
// constants. A mask written as MOD or as a shift round trip reaches it as
// its AND (see maskForm).
func isSelectorExpr(e *Expr) bool {
	hasLoad0 := false
	ok := walkSelector(e, &hasLoad0)
	return ok && hasLoad0
}

func walkSelector(e *Expr, hasLoad0 *bool) bool {
	switch e.Kind {
	case KindConst:
		return true
	case KindCData:
		off, ok := e.Args[0].ConstUint()
		if ok && off == 0 {
			*hasLoad0 = true
			return true
		}
		return false
	case KindApp:
		switch e.Op {
		case evm.DIV, evm.SHR, evm.AND:
			for _, a := range e.Args {
				if !walkSelector(a, hasLoad0) {
					return false
				}
			}
			return true
		default:
			return false
		}
	default:
		return false
	}
}
