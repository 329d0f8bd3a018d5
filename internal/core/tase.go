package core

import (
	"maps"
	"slices"
	"sync"
	"time"

	"sigrec/internal/evm"
	"sigrec/internal/obs"
)

// Exploration budgets. TASE only needs the parameter-handling prefix of each
// function, so these are generous for generated and real-world dispatch
// bodies alike.
const (
	maxVisitsPerJumpi = 3
	maxStepsPerPath   = 60_000
	maxPathsPerFn     = 512
	maxTotalSteps     = 4_000_000
	// memRegionSpan bounds how far past a CALLDATACOPY destination an MLOAD
	// is still attributed to that copy when the copy length is symbolic.
	memRegionSpan = 0x8000
	// deadlineCheckMask: the wall clock and the cancellation channel are
	// polled every (mask+1) steps; at sub-microsecond step cost this keeps
	// deadline overshoot far below a millisecond while adding well under 1%
	// overhead.
	deadlineCheckMask = 255
	// maxStackDepth is the EVM stack limit: a path whose next instruction
	// would take its stack past it ends, as the EVM halts on overflow. It
	// also bounds a pooled state's stack buffer at about 8 KiB.
	maxStackDepth = 1024
	// maxPooledStateMap caps the entries a state's memory or visit map may
	// have held for the state to go back to statePool: clear keeps a map's
	// table, so a path that stored thousands of words must not pin them.
	// 256 entries are about 8 KiB of table, as much as a full stack.
	maxPooledStateMap = 256
)

// limits bounds one TASE exploration. The zero value means "no explicit
// caller bounds"; defaultLimits fills in the built-in budgets.
type limits struct {
	// maxSteps caps the total symbolic steps across all paths.
	maxSteps int
	// maxPaths caps the number of explored paths.
	maxPaths int
	// deadline is the wall-clock cutoff; zero means none.
	deadline time.Time
	// done, when non-nil, cancels the exploration when closed (a
	// context.Context's Done channel).
	done <-chan struct{}
}

// defaultLimits returns the built-in exploration budgets.
func defaultLimits() limits {
	return limits{maxSteps: maxTotalSteps, maxPaths: maxPathsPerFn}
}

// EventKind discriminates collected events.
type EventKind int

// Event kinds.
const (
	// EvCDL is a CALLDATALOAD.
	EvCDL EventKind = iota + 1
	// EvCDC is a CALLDATACOPY.
	EvCDC
	// EvOp is an instruction applied to a call-data-derived value.
	EvOp
)

// Guard is one conditional branch the current path passed through.
type Guard struct {
	// PC of the JUMPI.
	PC uint64
	// Cond is the branch condition (full symbolic structure).
	Cond *Expr
	// Taken reports whether the jump was taken.
	Taken bool
	// Lo and Hi delimit the static scope interval used as a control-
	// dependence approximation: an event at pc in (Lo, Hi) is treated as
	// controlled by this guard.
	Lo, Hi uint64
}

// Controls reports whether an event at pc falls in the guard's scope.
func (g Guard) Controls(pc uint64) bool { return pc > g.Lo && pc < g.Hi }

// guardNode is one link of a path's persistent guard chain: a guard, the
// chain of guards enclosing it, and the chain's length. Chains only ever
// grow at the head, so paths forked at a JUMPI and the events each of them
// records share everything before the fork.
type guardNode struct {
	Guard
	parent *guardNode
	depth  int
}

// Event is one observation made during TASE.
type Event struct {
	Kind EventKind
	PC   uint64

	// EvCDL: Off is the load offset; Val the loaded value.
	Off *Expr
	Val *Expr

	// EvCDC: Dst is the (concrete) memory destination, Src and Len the
	// call-data source offset and byte count.
	Dst uint64
	Src *Expr
	Len *Expr

	// EvOp: Op and its operands.
	Op   evm.Op
	Args []*Expr

	// guards is the chain of guards active when the event fired, innermost
	// first (see Guards).
	guards *guardNode
}

// Guards returns the guards active when the event fired, outermost first.
func (ev *Event) Guards() []Guard {
	if ev.guards == nil {
		return nil
	}
	out := make([]Guard, ev.guards.depth)
	for n := ev.guards; n != nil; n = n.parent {
		out[n.depth-1] = n.Guard
	}
	return out
}

// Trace is the deduplicated event stream of one function.
type Trace struct {
	Selector [4]byte
	Events   []Event
	// Truncated is set when an exploration budget was hit.
	Truncated bool

	// it is the interner whose slabs hold the events' nodes and guard
	// chains and whose buffer holds Events; the recovery pipeline recycles
	// it once inference is done with the trace.
	it *interner
}

// state is one symbolic machine state during path exploration. It owns its
// stack, word memory and JUMPI visit counters outright: a fork copies them
// into the new state's own buffers, which stay with the state in statePool.
// The append-only guard and copy-region lists are persistent chains carved
// from the interner's slabs, so a fork shares them and each side pushes its
// own head.
type state struct {
	pc    uint64
	steps int

	stack  []*Expr
	mem    map[uint64]*Expr
	visits map[uint64]int
	copies *copyNode // newest first
	guards *guardNode
}

// copyNode is one CALLDATACOPY region of a path's copy-region chain, in
// front of the regions copied before it.
type copyNode struct {
	dst  uint64
	src  *Expr
	ln   *Expr
	next *copyNode
}

// statePool recycles exploration states with their buffers. States fork and
// die at every JUMPI fan-out; a pooled state keeps its stack buffer and its
// two maps, emptied, so a fork copies into memory a dead path already grew.
// What outlives a path but not the trace (nodes, guard and copy chains, the
// event buffer, the dedup set) is pooled with the interner instead.
var statePool = sync.Pool{New: func() any {
	mStateAllocs.Inc()
	return &state{
		stack:  make([]*Expr, 0, 32),
		mem:    make(map[uint64]*Expr, 8),
		visits: make(map[uint64]int, 8),
	}
}}

// tase explores the contract from pc 0 with the call data symbolic except
// for the first 32 bytes, which carry the given selector. The dispatcher
// then folds concretely and execution reaches exactly the selected
// function's body. An engine lives on its caller's stack: what outlives
// the exploration is the trace (the interner) and a copy of the counters.
type tase struct {
	program    *Program
	selWord    evm.Word // value returned for CALLDATALOAD(0), unless walk
	walk       bool     // the dispatcher walk: the selector stays symbolic
	lim        limits
	it         *interner // per-trace hash-consing table, event buffer and dedup set
	cancelable bool      // a deadline or cancellation channel is armed
	expired    bool      // deadline passed or context cancelled
	taseCounts
}

// taseCounts are an exploration's counters: what span annotation, the
// wide event and the telemetry read once it is done (annotateTASE,
// finishTASE, meterTASE).
type taseCounts struct {
	paths      int // states run
	totSteps   int
	pruned     int // forks suppressed and worklist states dropped by budgets
	trunc      bool
	cloneBytes uint64 // bytes of stack, memory and visit counters copied at forks
	stateGets  uint64 // states taken from newState: the paths run and queued

	// Set when run returns. The interner's counters are copied because the
	// pipeline may recycle it before the counters are folded.
	events                   int
	internHits, internMisses uint64
	cause                    string // truncationCause
}

// newTASE builds an exploration engine with a fresh interner. A nil
// selWord leaves the selector symbolic: the dispatcher walk.
func newTASE(program *Program, selWord *evm.Word, lim limits) tase {
	t := tase{program: program, lim: lim, it: newInterner(), walk: selWord == nil}
	if selWord != nil {
		t.selWord = *selWord
	}
	return t
}

// eventID is the dedup key of an Event: expression identity is the interned
// id, so keying does integer compares instead of recursive string
// formatting. Pure opcodes carry at most three operands, which bounds the
// arity.
type eventID struct {
	kind       EventKind
	op         evm.Op
	pc         uint64
	dst        uint64
	a0, a1, a2 uint32
}

// truncationCause names the budget that cut the exploration short, for
// span attributes and the recovery's first-wins TruncCause, which the
// sigrec_truncations_total{cause=...} counter reads.
// Empty when the exploration completed.
func (t *tase) truncationCause() string {
	switch {
	case !t.trunc:
		return ""
	case t.expired:
		return "deadline"
	case t.totSteps >= t.lim.maxSteps:
		return "steps"
	case t.paths >= t.lim.maxPaths:
		return "paths"
	default:
		return "path-steps"
	}
}

// annotateTASE copies one exploration's counters onto its span in a single
// batched SetAttrs (one attribute slice per span). selHex, when non-empty,
// leads the attributes so per-selector explorations are greppable; the
// dispatcher walk passes "". The guard keeps attribute formatting entirely
// off the untraced path.
func annotateTASE(sp *obs.Span, t *taseCounts, selHex string) {
	if sp == nil {
		return
	}
	attrs := make([]obs.Attr, 0, 6)
	if selHex != "" {
		attrs = append(attrs, obs.Attr{Key: "selector", Str: selHex})
	}
	attrs = append(attrs,
		obs.Attr{Key: "paths", Num: int64(t.paths)},
		obs.Attr{Key: "steps", Num: int64(t.totSteps)},
		obs.Attr{Key: "pruned", Num: int64(t.pruned)},
	)
	if total := t.internHits + t.internMisses; total > 0 {
		attrs = append(attrs, obs.Attr{Key: "intern_hit_permille", Num: int64(t.internHits * 1000 / total)})
	}
	if t.cause != "" {
		attrs = append(attrs, obs.Attr{Key: "truncated", Str: t.cause})
	}
	sp.SetAttrs(attrs...)
}

// pollCancel checks the cancellation channel and the wall-clock deadline.
// It is deliberately out of the per-step hot path: explore calls it only
// every deadlineCheckMask+1 steps (and at fork points), and only when
// cancelable is set, so unbounded recoveries pay a single flag test.
func (t *tase) pollCancel() bool {
	if t.expired {
		return true
	}
	if t.lim.done != nil {
		select {
		case <-t.lim.done:
			t.expired = true
			return true
		default:
		}
	}
	if !t.lim.deadline.IsZero() && time.Now().After(t.lim.deadline) {
		t.expired = true
		return true
	}
	return false
}

// Program wraps a disassembled contract for analysis.
type Program = evm.Program

// run explores all paths and returns the deduplicated events. They live
// in the interner's event buffer until the interner is recycled.
func (t *tase) run() []Event {
	if t.it == nil {
		t.it = newInterner()
	}
	if t.lim.maxSteps <= 0 {
		t.lim.maxSteps = maxTotalSteps
	}
	if t.lim.maxPaths <= 0 {
		t.lim.maxPaths = maxPathsPerFn
	}
	t.cancelable = t.lim.done != nil || !t.lim.deadline.IsZero()
	worklist := []*state{t.newState()}
	for len(worklist) > 0 && t.paths < t.lim.maxPaths && t.totSteps < t.lim.maxSteps &&
		!(t.cancelable && t.pollCancel()) {
		n := len(worklist) - 1
		// explore appends the path's forks in encounter order; reversing
		// them pops the earliest fork of the just-finished path first, the
		// depth-first order the explorer has always used.
		worklist = t.explore(worklist[n], worklist[:n])
		slices.Reverse(worklist[n:])
	}
	if len(worklist) > 0 {
		// Budget exhausted with states still queued: the result is partial.
		t.pruned += len(worklist)
		t.trunc = true
		for _, st := range worklist {
			t.releaseState(st)
		}
	}
	// The node table and the dedup set stay with the interner, to be
	// emptied and reused when it is recycled.
	t.events, t.internHits, t.internMisses = len(t.it.events), t.it.hits, t.it.misses
	t.cause = t.truncationCause()
	return t.it.events
}

// newState takes a state with empty buffers from the pool.
func (t *tase) newState() *state {
	t.stateGets++
	return statePool.Get().(*state)
}

// releaseState returns a dead path's state to statePool, its buffers
// emptied, unless its memory or visit map grew past maxPooledStateMap, and
// reports whether it did.
func (t *tase) releaseState(st *state) bool {
	if len(st.mem) > maxPooledStateMap || len(st.visits) > maxPooledStateMap {
		return false
	}
	clear(st.stack[:cap(st.stack)]) // drop Expr references so pooled states don't pin traces
	clear(st.mem)
	clear(st.visits)
	*st = state{stack: st.stack[:0], mem: st.mem, visits: st.visits}
	statePool.Put(st)
	return true
}

// cloneState forks the state: the stack, memory and visit counters are
// copied into the new state's own buffers, and the guard and copy-region
// chains are shared.
func (t *tase) cloneState(s *state) *state {
	cp := t.newState()
	cp.pc, cp.steps, cp.copies, cp.guards = s.pc, s.steps, s.copies, s.guards
	cp.stack = append(cp.stack, s.stack...)
	maps.Copy(cp.mem, s.mem)
	maps.Copy(cp.visits, s.visits)
	t.cloneBytes += uint64(len(s.stack))*8 + uint64(len(s.mem)+len(s.visits))*16
	return cp
}

// explore runs one path until it ends, appending its forked states to
// work in the order they were spawned, and returns work. The state is
// consumed: it is released back to the pool before returning.
func (t *tase) explore(st *state, work []*state) []*state {
	t.paths++
	for {
		if st.steps >= maxStepsPerPath || t.totSteps >= t.lim.maxSteps {
			t.trunc = true
			break
		}
		if t.cancelable && t.totSteps&deadlineCheckMask == 0 && t.pollCancel() {
			t.trunc = true
			break
		}
		ins, ok := t.program.At(st.pc)
		if !ok {
			break // ran off the end: STOP
		}
		st.steps++
		t.totSteps++
		fork, done := t.step(st, ins)
		if fork != nil {
			work = append(work, fork)
		}
		if done {
			break
		}
	}
	t.releaseState(st)
	return work
}

// eventKey builds the integer dedup key of an event. Every operand is an
// interned node, so its id is its structural identity.
func eventKey(ev *Event) eventID {
	switch ev.Kind {
	case EvCDL:
		return eventID{kind: EvCDL, pc: ev.PC, a0: ev.Off.id}
	case EvCDC:
		return eventID{kind: EvCDC, pc: ev.PC, dst: ev.Dst, a0: ev.Src.id, a1: ev.Len.id}
	default:
		k := eventID{kind: EvOp, op: ev.Op, pc: ev.PC}
		switch len(ev.Args) {
		case 3:
			k.a2 = ev.Args[2].id
			fallthrough
		case 2:
			k.a1 = ev.Args[1].id
			fallthrough
		case 1:
			k.a0 = ev.Args[0].id
		}
		return k
	}
}

// step executes one instruction. It returns a forked state to queue (at
// most one, from a symbolic JUMPI whose fall-through this path keeps
// following) and whether the path is done.
func (t *tase) step(st *state, ins *evm.Instruction) (*state, bool) {
	op := ins.Op
	if !op.Defined() {
		return nil, true
	}
	pops := op.StackPops()
	if len(st.stack) < pops {
		return nil, true // malformed path; abandon
	}
	if len(st.stack)-pops+op.StackPushes() > maxStackDepth {
		return nil, true // stack overflow: the EVM halts
	}
	pop := func() *Expr {
		e := st.stack[len(st.stack)-1]
		st.stack = st.stack[:len(st.stack)-1]
		return e
	}
	push := func(e *Expr) { st.stack = append(st.stack, e) }
	nextPC := ins.PC + 1 + uint64(len(ins.ArgBytes))

	switch {
	case op.IsPush():
		push(t.it.constW(ins.Arg))
	case op.IsDup():
		n := int(op-evm.DUP1) + 1
		push(st.stack[len(st.stack)-n])
	case op.IsSwap():
		n := int(op-evm.SWAP1) + 1
		top := len(st.stack) - 1
		st.stack[top], st.stack[top-n] = st.stack[top-n], st.stack[top]
	default:
		switch op {
		case evm.STOP, evm.RETURN, evm.REVERT, evm.INVALID, evm.SELFDESTRUCT:
			return nil, true

		case evm.JUMP:
			dst := pop()
			dv, ok := dst.ConstUint()
			if !ok || !t.program.IsJumpDest(dv) {
				// Input-dependent jump target: stop this path (the paper's
				// documented TASE restriction).
				return nil, true
			}
			st.pc = dv
			return nil, false

		case evm.JUMPI:
			dst := pop()
			cond := pop()
			dv, okDst := dst.ConstUint()
			if !okDst || !t.program.IsJumpDest(dv) {
				return nil, true
			}
			lo, hi := ins.PC, dv
			if hi < lo {
				lo, hi = hi, lo
			}
			mkGuard := func(taken bool) Guard {
				return Guard{PC: ins.PC, Cond: cond, Taken: taken, Lo: lo, Hi: hi}
			}
			// follow continues this path down one side, without forking.
			follow := func(taken bool) (*state, bool) {
				st.guards = t.it.pushGuard(st.guards, mkGuard(taken))
				if taken {
					st.pc = dv
				} else {
					st.pc = nextPC
				}
				return nil, false
			}
			if cond.Conc != nil {
				return follow(!cond.Conc.IsZero())
			}
			if t.walk {
				// Dispatcher walk: a selector test's EQ event is already
				// recorded, and the function body behind it is left to that
				// selector's own exploration. Follow the branch to the next
				// test only.
				if toNext, ok := selectorTest(cond); ok {
					return follow(toNext)
				}
			}
			// Symbolic condition: fork within the visit budget.
			st.visits[ins.PC]++
			if st.visits[ins.PC] > maxVisitsPerJumpi {
				// Budget hit: follow the forward branch (usually the loop
				// exit) unless it lands in an abort block, in which case
				// keep falling through (the branch is a range check).
				t.pruned++
				return follow(dv > ins.PC && !t.isRevertBlock(dv))
			}
			if int(t.stateGets) >= t.lim.maxPaths || t.totSteps >= t.lim.maxSteps ||
				(t.cancelable && t.pollCancel()) {
				// Fan-out point with the global budget spent (stateGets counts
				// the paths run and queued): stop forking, follow the
				// fall-through only, and flag the result partial.
				t.pruned++
				t.trunc = true
				return follow(false)
			}
			other := t.cloneState(st)
			st.guards = t.it.pushGuard(st.guards, mkGuard(false))
			st.pc = nextPC
			other.guards = t.it.pushGuard(other.guards, mkGuard(true))
			other.pc = dv
			// Continue the fall-through on this path; queue the taken one.
			return other, false

		case evm.CALLDATALOAD:
			off := pop()
			var val *Expr
			if v, ok := off.ConstUint(); ok && v == 0 && !t.walk {
				val = t.it.constW(t.selWord)
			} else {
				val = t.it.cdata(off)
				t.it.record(Event{Kind: EvCDL, PC: ins.PC, Off: off, Val: val, guards: st.guards})
			}
			push(val)

		case evm.CALLDATASIZE:
			push(t.it.csize())

		case evm.CALLDATACOPY:
			dst, src, ln := pop(), pop(), pop()
			if dv, ok := dst.ConstUint(); ok {
				st.copies = t.it.pushCopy(st.copies, dv, src, ln)
				t.it.record(Event{Kind: EvCDC, PC: ins.PC, Dst: dv, Src: src, Len: ln, guards: st.guards})
			}

		case evm.MLOAD:
			addr := pop()
			push(t.mload(st, addr))

		case evm.MSTORE:
			addr, val := pop(), pop()
			if av, ok := addr.ConstUint(); ok {
				st.mem[av] = val
			}

		case evm.MSTORE8:
			pop()
			pop()

		case evm.SLOAD:
			pop()
			push(t.it.fresh("sload"))

		case evm.SSTORE:
			pop()
			pop()

		case evm.KECCAK256:
			pop()
			pop()
			push(t.it.fresh("sha3"))

		case evm.ADDRESS, evm.ORIGIN, evm.CALLER, evm.CALLVALUE, evm.GASPRICE,
			evm.COINBASE, evm.TIMESTAMP, evm.NUMBER, evm.PREVRANDAO,
			evm.GASLIMIT, evm.CHAINID, evm.SELFBALANCE, evm.BASEFEE,
			evm.MSIZE, evm.GAS, evm.RETURNDATASIZE, evm.CODESIZE:
			push(t.it.fresh(op.String()))

		case evm.PC:
			push(t.it.constUint(ins.PC))

		case evm.JUMPDEST:
			// no-op

		case evm.POP:
			pop()

		case evm.BALANCE, evm.EXTCODESIZE, evm.EXTCODEHASH, evm.BLOCKHASH:
			pop()
			push(t.it.fresh(op.String()))

		case evm.CODECOPY, evm.RETURNDATACOPY:
			pop()
			pop()
			pop()

		case evm.EXTCODECOPY:
			pop()
			pop()
			pop()
			pop()

		case evm.CREATE, evm.CREATE2:
			for i := 0; i < pops; i++ {
				pop()
			}
			push(t.it.fresh("create"))

		case evm.CALL, evm.CALLCODE, evm.DELEGATECALL, evm.STATICCALL:
			for i := 0; i < pops; i++ {
				pop()
			}
			push(t.it.fresh("callret"))

		case evm.LOG0, evm.LOG0 + 1, evm.LOG0 + 2, evm.LOG0 + 3, evm.LOG4:
			for i := 0; i < pops; i++ {
				pop()
			}

		default:
			// Pure computational opcode (every opcode with more than three
			// operands has its own case above): build the application
			// through the interner. Operands land in a scratch array — on
			// an interner hit nothing is allocated; the canonical node's
			// own op and Args back any recorded event, so a mask shape the
			// interner rewrote is recorded as its AND.
			var argArr [3]*Expr
			args := argArr[:pops]
			for i := range args {
				args[i] = pop()
			}
			e := t.it.appN(op, args)
			if tainted(args) {
				t.it.record(Event{Kind: EvOp, PC: ins.PC, Op: e.Op, Args: e.Args, guards: st.guards})
			}
			if op.StackPushes() > 0 {
				push(e)
			}
		}
	}
	st.pc = nextPC
	return nil, false
}

func tainted(args []*Expr) bool {
	for _, a := range args {
		if a.ContainsCData() {
			return true
		}
	}
	return false
}

// isRevertBlock reports whether the code at pc immediately aborts
// (JUMPDEST followed by a short push sequence ending in REVERT/INVALID).
func (t *tase) isRevertBlock(pc uint64) bool {
	idx, ok := t.program.IndexOf(pc)
	if !ok {
		return false
	}
	for i := idx; i < len(t.program.Instructions) && i < idx+6; i++ {
		op := t.program.Instructions[i].Op
		switch {
		case op == evm.REVERT || op == evm.INVALID:
			return true
		case op == evm.JUMPDEST || op.IsPush() || op.IsDup():
			continue
		default:
			return false
		}
	}
	return false
}

// mload resolves a memory read against word stores and copy regions.
func (t *tase) mload(st *state, addr *Expr) *Expr {
	if av, ok := addr.ConstUint(); ok {
		if v, hit := st.mem[av]; hit {
			return v
		}
		if cp := findCopy(st.copies, av); cp != nil {
			off := t.it.app(evm.ADD, cp.src, t.it.constUint(av-cp.dst))
			return t.it.cdata(off)
		}
		return t.it.constW(evm.ZeroWord) // untouched memory reads zero
	}
	// Symbolic address: attribute via the constant component.
	if base, ok := linearConst(addr).Uint64(); ok {
		if cp := findCopy(st.copies, base); cp != nil {
			delta := t.it.app(evm.SUB, addr, t.it.constUint(cp.dst))
			return t.it.cdata(t.it.app(evm.ADD, cp.src, delta))
		}
	}
	return t.it.fresh("mem")
}

// findCopy locates the most recent copy region covering the address, or
// returns nil.
func findCopy(cp *copyNode, addr uint64) *copyNode {
	for ; cp != nil; cp = cp.next {
		span := uint64(memRegionSpan)
		if lv, ok := cp.ln.ConstUint(); ok && lv > 0 && lv < span {
			span = lv
		}
		if addr >= cp.dst && addr < cp.dst+span {
			return cp
		}
	}
	return nil
}

// TraceFunction symbolically executes the contract as if called with the
// given selector and returns the observed events, under the default
// exploration budgets. The exploration's counters are reported into the
// pipeline telemetry.
func TraceFunction(program *Program, selector [4]byte) Trace {
	tr, counts := traceFunctionEngine(program, selector, defaultLimits())
	tr.it.release() // the caller holds the trace; it is never recycled
	meterTASE(&counts)
	return tr
}

// traceFunctionEngine runs one per-selector exploration and returns the
// finished engine's counters alongside the trace, which owns the
// interner, leaving span annotation and counter folding (annotateTASE,
// finishTASE) to the caller. The recovery pipeline explores on its
// selector workers and does both in its merge, in selector order, so span
// trees, telemetry and the wide event are the same at every fan-out width.
func traceFunctionEngine(program *Program, selector [4]byte, lim limits) (Trace, taseCounts) {
	var b [32]byte
	copy(b[:], selector[:])
	selWord := evm.WordFromBytes(b[:])
	t := newTASE(program, &selWord, lim)
	events := t.run()
	return Trace{Selector: selector, Events: events, Truncated: t.trunc, it: t.it}, t.taseCounts
}
