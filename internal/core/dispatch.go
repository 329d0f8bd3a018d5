package core

import (
	"sigrec/internal/eventlog"
	"sigrec/internal/evm"
	"sigrec/internal/obs"
)

// ExtractSelectors recovers the function ids a contract dispatches on by
// symbolically executing the dispatcher: every EQ comparison between a
// 4-byte constant and an expression derived from CALLDATALOAD(0) via
// DIV/SHR/SHL/AND is a dispatch test (§2.2 of the paper).
func ExtractSelectors(program *Program) [][4]byte {
	sels, _ := extractSelectors(program, defaultLimits())
	return sels
}

// extractSelectors runs the dispatcher exploration under the given limits
// and additionally reports whether the exploration was truncated (the
// selector list may then be incomplete).
func extractSelectors(program *Program, lim limits) ([][4]byte, bool) {
	return extractSelectorsSpan(program, lim, nil, nil)
}

// extractSelectorsSpan is extractSelectors with the exploration's counters
// attached to sp when tracing is on and folded into the recovery's wide
// event when ev is non-nil.
func extractSelectorsSpan(program *Program, lim limits, sp *obs.Span, ev *eventlog.Event) ([][4]byte, bool) {
	t := newTASE(program, nil, lim) // selWord nil: the selector stays symbolic
	events := t.run()
	annotateTASE(sp, t, "")
	it := t.it
	finishTASE(t, ev)
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
	it.recycle() // only selector bytes leave the dispatcher walk
	return out, t.trunc
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
