package core

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"testing"

	"sigrec/internal/abi"
	"sigrec/internal/corpus"
	"sigrec/internal/evm"
)

// buildAndTrace assembles a raw function body (no dispatcher) and traces it
// with a dummy selector override disabled.
func buildAndTrace(t *testing.T, build func(a *evm.Assembler)) []Event {
	t.Helper()
	a := evm.NewAssembler()
	build(a)
	code, err := a.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	eng := &tase{program: evm.Disassemble(code)}
	return eng.run()
}

func findCDL(events []Event) []Event {
	var out []Event
	for _, ev := range events {
		if ev.Kind == EvCDL {
			out = append(out, ev)
		}
	}
	return out
}

func TestTASERecordsConstantLoads(t *testing.T) {
	events := buildAndTrace(t, func(a *evm.Assembler) {
		a.Push(4).Op(evm.CALLDATALOAD).Op(evm.POP)
		a.Push(36).Op(evm.CALLDATALOAD).Op(evm.POP)
		a.Op(evm.STOP)
	})
	cdls := findCDL(events)
	if len(cdls) != 2 {
		t.Fatalf("%d CDL events", len(cdls))
	}
	if off, _ := cdls[0].Off.ConstUint(); off != 4 {
		t.Errorf("first load at %d", off)
	}
	if off, _ := cdls[1].Off.ConstUint(); off != 36 {
		t.Errorf("second load at %d", off)
	}
}

func TestTASEResolvesMemoryThroughCopy(t *testing.T) {
	// CALLDATACOPY 64 bytes from offset 4 to memory 0x100, then MLOAD
	// 0x120 and mask it: the mask event must reference cd[0x24].
	events := buildAndTrace(t, func(a *evm.Assembler) {
		a.Push(64).Push(4).Push(0x100).Op(evm.CALLDATACOPY)
		a.Push(0x120).Op(evm.MLOAD)
		a.PushBytes([]byte{0xff}).Op(evm.AND)
		a.Op(evm.POP)
		a.Op(evm.STOP)
	})
	var sawMask bool
	for _, ev := range events {
		if ev.Kind != EvOp || ev.Op != evm.AND {
			continue
		}
		sawMask = true
		val := ev.Args[1]
		if val.Kind != KindCData {
			t.Fatalf("masked value is %v, want a call-data load", val)
		}
		d, ok := new(inference).describe(val.Args[0])
		if !ok || d.c != 0x24 || len(d.terms) != 0 {
			t.Errorf("resolved offset = %+v, want constant 0x24", d)
		}
	}
	if !sawMask {
		t.Fatal("no AND event recorded")
	}
}

func TestTASEForksOnSymbolicBranch(t *testing.T) {
	// if calldataload(4) != 0 { read 36 } else { read 68 }: both sides
	// must be explored.
	events := buildAndTrace(t, func(a *evm.Assembler) {
		taken := a.NewLabel()
		a.Push(4).Op(evm.CALLDATALOAD)
		a.JumpI(taken)
		a.Push(68).Op(evm.CALLDATALOAD).Op(evm.POP)
		a.Op(evm.STOP)
		a.Bind(taken)
		a.Push(36).Op(evm.CALLDATALOAD).Op(evm.POP)
		a.Op(evm.STOP)
	})
	offsets := map[uint64]bool{}
	for _, ev := range findCDL(events) {
		if off, ok := ev.Off.ConstUint(); ok {
			offsets[off] = true
		}
	}
	for _, want := range []uint64{4, 36, 68} {
		if !offsets[want] {
			t.Errorf("offset %d not explored (%v)", want, offsets)
		}
	}
}

func TestTASEGuardIntervals(t *testing.T) {
	// A loop body load must carry the loop guard; code after the loop must
	// not be controlled by it.
	events := buildAndTrace(t, func(a *evm.Assembler) {
		// num := calldataload(4); for i := 0; i < num; i++ { load 36 }
		a.Push(4).Op(evm.CALLDATALOAD) // num on stack
		a.Push(0)                      // i
		top := a.NewLabel()
		exit := a.NewLabel()
		a.Bind(top)
		a.Dup(2).Dup(2).Op(evm.LT) // i < num
		a.Op(evm.ISZERO)
		a.JumpI(exit)
		a.Push(36).Op(evm.CALLDATALOAD).Op(evm.POP)
		a.Push(1).Op(evm.ADD)
		a.Jump(top)
		a.Bind(exit)
		a.Push(100).Op(evm.CALLDATALOAD).Op(evm.POP) // after the loop
		a.Op(evm.STOP)
	})
	var inLoop, after *Event
	for i := range findCDL(events) {
		ev := findCDL(events)[i]
		if off, ok := ev.Off.ConstUint(); ok {
			switch off {
			case 36:
				e := ev
				inLoop = &e
			case 100:
				e := ev
				after = &e
			}
		}
	}
	if inLoop == nil || after == nil {
		t.Fatal("loads not recorded")
	}
	controlled := func(ev *Event) int {
		n := 0
		seen := map[uint64]bool{}
		for _, g := range ev.Guards() {
			if g.Controls(ev.PC) && !seen[g.PC] {
				if _, ok := loopBound(g); ok {
					seen[g.PC] = true
					n++
				}
			}
		}
		return n
	}
	if controlled(inLoop) == 0 {
		t.Error("loop body load carries no loop guard")
	}
	if controlled(after) != 0 {
		t.Error("post-loop load is wrongly controlled by the loop guard")
	}
}

func TestTASEStopsOnComputedJump(t *testing.T) {
	// A jump target derived from inputs must stop the path (the paper's
	// documented restriction), not loop or crash.
	events := buildAndTrace(t, func(a *evm.Assembler) {
		a.Push(4).Op(evm.CALLDATALOAD)
		a.Op(evm.JUMP)
	})
	if len(findCDL(events)) != 1 {
		t.Errorf("%d CDL events", len(findCDL(events)))
	}
}

func TestTASEVisitBudgetTerminates(t *testing.T) {
	// A symbolic-bound loop must terminate exploration via the visit
	// budget, recording at least two iterations (for stride detection).
	events := buildAndTrace(t, func(a *evm.Assembler) {
		numSlot := uint64(0x40000)
		iSlot := uint64(0x40020)
		a.Push(4).Op(evm.CALLDATALOAD)
		a.Push(numSlot).Op(evm.MSTORE)
		a.Push(0).Push(iSlot).Op(evm.MSTORE)
		top := a.NewLabel()
		exit := a.NewLabel()
		a.Bind(top)
		a.Push(numSlot).Op(evm.MLOAD)
		a.Push(iSlot).Op(evm.MLOAD)
		a.Op(evm.LT).Op(evm.ISZERO)
		a.JumpI(exit)
		// load 36 + 32*i
		a.Push(36)
		a.Push(iSlot).Op(evm.MLOAD)
		a.Push(32).Op(evm.MUL)
		a.Op(evm.ADD)
		a.Op(evm.CALLDATALOAD).Op(evm.POP)
		a.Push(iSlot).Op(evm.MLOAD)
		a.Push(1).Op(evm.ADD)
		a.Push(iSlot).Op(evm.MSTORE)
		a.Jump(top)
		a.Bind(exit)
		a.Op(evm.STOP)
	})
	offs := map[uint64]bool{}
	for _, ev := range findCDL(events) {
		if off, ok := ev.Off.ConstUint(); ok {
			offs[off] = true
		}
	}
	if !offs[36] || !offs[68] {
		t.Errorf("iterations not unrolled twice: %v", offs)
	}
}

func TestTraceFunctionSelectorOverride(t *testing.T) {
	// With the selector pinned, the dispatcher folds concretely: only the
	// selected body's loads appear.
	sigA, _ := abi.ParseSignature("alpha(uint256)")
	sigB, _ := abi.ParseSignature("beta(uint256,uint256)")
	a := evm.NewAssembler()
	bodyA := a.NewLabel()
	bodyB := a.NewLabel()
	a.Push(0).Op(evm.CALLDATALOAD).Push(0xe0).Op(evm.SHR)
	selA, selB := sigA.Selector(), sigB.Selector()
	a.Dup(1).PushBytes(selA[:]).Op(evm.EQ).JumpI(bodyA)
	a.Dup(1).PushBytes(selB[:]).Op(evm.EQ).JumpI(bodyB)
	a.Op(evm.STOP)
	a.Bind(bodyA)
	a.Push(4).Op(evm.CALLDATALOAD).Op(evm.POP).Op(evm.STOP)
	a.Bind(bodyB)
	a.Push(4).Op(evm.CALLDATALOAD).Op(evm.POP)
	a.Push(36).Op(evm.CALLDATALOAD).Op(evm.POP).Op(evm.STOP)
	code, err := a.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	program := evm.Disassemble(code)
	trA := TraceFunction(program, selA)
	trB := TraceFunction(program, selB)
	if n := len(findCDL(trA.Events)); n != 1 {
		t.Errorf("alpha: %d loads, want 1", n)
	}
	if n := len(findCDL(trB.Events)); n != 2 {
		t.Errorf("beta: %d loads, want 2", n)
	}
}

// TestGuardChains traces a body with two nested symbolic JUMPIs:
//
//	if cd[4] { load cd[132] } else if cd[36] { load cd[100] } else { load cd[68] }
//
// Each load's Guards list its enclosing branches outermost first, the two
// sides of the inner fork share the outer guard's chain link (a fork
// copies no guards), and the guard conditions of a TraceFunction trace
// render the same after recoveries have recycled interners and slab chunks
// on other goroutines.
func TestGuardChains(t *testing.T) {
	a := evm.NewAssembler()
	outer, inner := a.NewLabel(), a.NewLabel()
	a.Push(4).Op(evm.CALLDATALOAD).JumpI(outer)
	a.Push(36).Op(evm.CALLDATALOAD).JumpI(inner)
	a.Push(68).Op(evm.CALLDATALOAD).Op(evm.POP).Op(evm.STOP)
	a.Bind(inner)
	a.Push(100).Op(evm.CALLDATALOAD).Op(evm.POP).Op(evm.STOP)
	a.Bind(outer)
	a.Push(132).Op(evm.CALLDATALOAD).Op(evm.POP).Op(evm.STOP)
	code, err := a.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	program := evm.Disassemble(code)
	var jumpis []uint64
	for _, ins := range program.Instructions {
		if ins.Op == evm.JUMPI {
			jumpis = append(jumpis, ins.PC)
		}
	}
	if len(jumpis) != 2 {
		t.Fatalf("%d JUMPIs assembled", len(jumpis))
	}
	j1, j2 := jumpis[0], jumpis[1]

	tr := TraceFunction(program, [4]byte{1, 2, 3, 4})
	loads := make(map[uint64]*Event)
	for i := range tr.Events {
		if ev := &tr.Events[i]; ev.Kind == EvCDL {
			off, _ := ev.Off.ConstUint()
			loads[off] = ev
		}
	}
	type branch struct {
		pc    uint64
		taken bool
	}
	want := map[uint64][]branch{
		4:   nil,
		36:  {{j1, false}},
		68:  {{j1, false}, {j2, false}},
		100: {{j1, false}, {j2, true}},
		132: {{j1, true}},
	}
	for off, branches := range want {
		ev := loads[off]
		if ev == nil {
			t.Fatalf("no load of cd[%d]", off)
		}
		var got []branch
		for _, g := range ev.Guards() {
			got = append(got, branch{g.PC, g.Taken})
		}
		if !slices.Equal(got, branches) {
			t.Errorf("cd[%d] guards %v, want %v", off, got, branches)
		}
	}
	shared := loads[36].guards
	if loads[68].guards.parent != shared || loads[100].guards.parent != shared {
		t.Errorf("the inner fork's two sides do not share the outer guard's link")
	}

	conds := func() string {
		var b strings.Builder
		for i := range tr.Events {
			for _, g := range tr.Events[i].Guards() {
				fmt.Fprintf(&b, "%d:%v:%s\n", g.PC, g.Taken, g.Cond)
			}
		}
		return b.String()
	}
	before := conds()
	c, err := corpus.GenerateSynthesized(1)
	if err != nil {
		t.Fatal(err)
	}
	for _, code := range distinctCodes(c)[:20] {
		if _, err := RecoverContext(context.Background(), code, Options{workers: 2}); err != nil {
			t.Fatal(err)
		}
	}
	if after := conds(); after != before {
		t.Fatalf("held guard conditions changed while recoveries ran:\n%s", lineDiff(before, after, 5))
	}
}

// TestTASEStackLimit: a loop that pushes one word per iteration ends its
// path at the EVM's 1,024-entry stack limit, as the EVM halts on
// overflow, instead of running to the per-path step budget.
func TestTASEStackLimit(t *testing.T) {
	// JUMPDEST PUSH1 1 PUSH1 0 JUMP
	eng := &tase{program: evm.Disassemble([]byte{0x5b, 0x60, 0x01, 0x60, 0x00, 0x56})}
	eng.run()
	// 1,023 full iterations leave 1,023 entries; the next one's JUMPDEST
	// and PUSH1 1 run, and PUSH1 0 would make 1,025.
	if want := 4*(maxStackDepth-1) + 3; eng.totSteps != want || eng.trunc {
		t.Fatalf("%d steps (truncated %v), want the path to end at the stack limit after %d", eng.totSteps, eng.trunc, want)
	}
}

// TestForkCopiesPathState: each side of a symbolic JUMPI owns its stack,
// memory and JUMPI visit counters. The fork J1 sits in the first iteration
// of a loop whose symbolic bound J2 allows three visits per path. The
// fall-through, which the engine follows first, SWAPs, MSTOREs and spends
// the rest of its visit budget; the taken side, explored after it from the
// fork's copy, must load through its own stack top and memory word, and get
// the two loop visits left in its own budget.
//
//	stack [i=0, 0x100, 0x200]; mem[0x80] = 0x11
//	loop: if i >= cd[36] goto exit           // J2
//	  load cd[mem[0x80]]; load cd[top+i]; i++
//	  if i == 1 {
//	    if cd[4] goto loop                   // J1
//	    SWAP1; mem[0x80] = 0x22; goto loop   // fall-through only
//	  }
//	  goto loop
func TestForkCopiesPathState(t *testing.T) {
	events := buildAndTrace(t, func(a *evm.Assembler) {
		loop, exit := a.NewLabel(), a.NewLabel()
		a.Push(0).Push(0x100).Push(0x200)
		a.Push(0x11).Push(0x80).Op(evm.MSTORE)
		a.Bind(loop)
		a.Dup(3).Push(36).Op(evm.CALLDATALOAD).Op(evm.GT).Op(evm.ISZERO).JumpI(exit)
		a.Push(0x80).Op(evm.MLOAD).Op(evm.CALLDATALOAD).Op(evm.POP)
		a.Dup(1).Dup(4).Op(evm.ADD).Op(evm.CALLDATALOAD).Op(evm.POP)
		a.Push(1).Dup(4).Op(evm.ADD).Swap(3).Op(evm.POP) // i++
		a.Dup(3).Push(1).Op(evm.EQ).Op(evm.ISZERO).JumpI(loop)
		a.Push(4).Op(evm.CALLDATALOAD).JumpI(loop)
		a.Swap(1)
		a.Push(0x22).Push(0x80).Op(evm.MSTORE)
		a.Jump(loop)
		a.Bind(exit)
		a.Op(evm.STOP)
	})
	var got []uint64
	for _, ev := range findCDL(events) {
		if off, ok := ev.Off.ConstUint(); ok && off != 4 && off != 36 {
			got = append(got, off)
		}
	}
	slices.Sort(got)
	// Before the fork: 0x11, 0x200. Fall-through: 0x22, 0x101, 0x102.
	// Taken side: 0x11, 0x201, 0x202.
	want := []uint64{0x11, 0x22, 0x101, 0x102, 0x200, 0x201, 0x202}
	if !slices.Equal(got, want) {
		t.Fatalf("constant loads %#x, want %#x", got, want)
	}
}

// forkChain assembles a straight chain of k symbolic JUMPIs, each after
// one MSTORE, whose taken sides stop at once: k forks, k+1 paths.
func forkChain(tb testing.TB, k int) *Program {
	tb.Helper()
	a := evm.NewAssembler()
	stop := a.NewLabel()
	for i := 0; i < k; i++ {
		a.Push(uint64(i)).Push(0x80).Op(evm.MSTORE)
		a.Push(4).Op(evm.CALLDATALOAD).JumpI(stop)
	}
	a.Bind(stop)
	a.Op(evm.STOP)
	code, err := a.Assemble()
	if err != nil {
		tb.Fatal(err)
	}
	return evm.Disassemble(code)
}

// TestForkAllocsFlat: a fork copies into the buffers of a pooled state, so
// once a few explorations have grown the pooled states' maps, exploring the
// k-fork chain makes a few allocations whatever k is (3, 7 and 9 at k = 4,
// 64 and 200: the worklist grows in log k steps; ceiling 10% over the
// largest). With a fork list per path beside the worklist it made 6, 14
// and 18; under copy-on-write forks with separate buffer pools it made
// 30, 756 and 2,990: the first write after each fork took a fresh buffer
// that was never pooled again. Each path is counted
// once, so the chain reads k+1 paths (2k+1 while a fork also counted its
// fall-through). The race detector's sync.Pool drops a random share of
// what is put back, so a -race build checks the exploration only.
func TestForkAllocsFlat(t *testing.T) {
	const ceiling = 10
	for _, k := range []int{4, 64, 200} {
		program := forkChain(t, k)
		var paths int
		explore := func() {
			eng := newTASE(program, nil, defaultLimits())
			eng.run()
			eng.it.recycle()
			paths = eng.paths
		}
		for range 10 {
			explore()
		}
		got := testing.AllocsPerRun(10, explore)
		if paths != k+1 {
			t.Fatalf("k=%d: %d paths counted, want %d", k, paths, k+1)
		}
		if got > ceiling && !raceEnabled {
			t.Errorf("k=%d: %.0f allocs per exploration, above the %d ceiling", k, got, ceiling)
		}
	}
}

// TestPathBudgetBoundsForks: a queued fork counts against the path budget,
// so a path that could fork more often than the budget allows stops
// forking there, and the worklist never holds more states than the budget.
func TestPathBudgetBoundsForks(t *testing.T) {
	eng := newTASE(forkChain(t, 600), nil, defaultLimits())
	eng.run()
	eng.it.recycle()
	if eng.paths != maxPathsPerFn || eng.stateGets != maxPathsPerFn {
		t.Errorf("%d paths run from %d states, want %d of each", eng.paths, eng.stateGets, maxPathsPerFn)
	}
	if got := eng.truncationCause(); got != "paths" {
		t.Errorf("truncation cause %q, want paths", got)
	}
}
