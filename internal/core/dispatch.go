package core

import "sigrec/internal/evm"

// ExtractSelectors recovers the function ids a contract dispatches on by
// symbolically executing the dispatcher: every EQ comparison between a
// 4-byte constant and an expression derived from CALLDATALOAD(0) via
// DIV/SHR/SHL/AND is a dispatch test (§2.2 of the paper).
func ExtractSelectors(program *Program) [][4]byte {
	t := newTASE(program, nil, defaultLimits()) // selWord nil: the selector stays symbolic
	sels := extractSelectors(t)
	meterTASE(t)
	return sels
}

// extractSelectors runs the dispatcher walk on t, a fresh engine whose
// selector is symbolic, and returns the selectors it dispatches on. The
// caller annotates and folds the finished engine (annotateTASE, and
// finishTASE or meterTASE); t.trunc reports a truncated walk, whose
// selector list may be incomplete. The caller builds the engine so that
// it can stay on the caller's stack.
func extractSelectors(t *tase) [][4]byte {
	events := t.run()
	var out [][4]byte
	seen := make(map[[4]byte]bool)
	for _, ev := range events {
		if ev.Kind != EvOp || ev.Op != evm.EQ {
			continue
		}
		c, sel := ev.Args[0], ev.Args[1]
		if c.Conc == nil {
			c, sel = sel, c
		}
		if c.Conc == nil || !isSelectorExpr(sel) {
			continue
		}
		v, ok := c.ConstUint()
		if !ok || v > 0xffffffff {
			continue
		}
		var id [4]byte
		id[0] = byte(v >> 24)
		id[1] = byte(v >> 16)
		id[2] = byte(v >> 8)
		id[3] = byte(v)
		if !seen[id] {
			seen[id] = true
			out = append(out, id)
		}
	}
	t.it.recycle() // only selector bytes leave the dispatcher walk
	return out
}

// isSelectorExpr recognizes expressions that extract the high 4 bytes of
// CALLDATALOAD(0): any composition of DIV, SHR, SHL, and AND over that load
// and constants. SHL admits the mask-as-shift-round-trip shape
// (SHR(224, SHL(224, x)) for AND(x, 0xffffffff)) that obfuscated
// dispatchers use.
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
		case evm.DIV, evm.SHR, evm.SHL, evm.AND:
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
