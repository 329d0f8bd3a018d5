package core

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"testing"

	"sigrec/internal/corpus"
	"sigrec/internal/evm"
)

// renderTrace renders every event of a trace field by field, walking each
// expression afresh, so a node whose slab slot was zeroed or reused shows
// up. Nil operands render as "<nil>" instead of panicking.
func renderTrace(tr Trace) string {
	var b strings.Builder
	expr := func(e *Expr) {
		if e == nil {
			b.WriteString("<nil>")
			return
		}
		e.render(&b, 0)
	}
	fmt.Fprintf(&b, "%x truncated=%v events=%d\n", tr.Selector, tr.Truncated, len(tr.Events))
	for _, ev := range tr.Events {
		fmt.Fprintf(&b, "kind=%d pc=%d dst=%d op=%v off=", ev.Kind, ev.PC, ev.Dst, ev.Op)
		expr(ev.Off)
		b.WriteString(" val=")
		expr(ev.Val)
		b.WriteString(" src=")
		expr(ev.Src)
		b.WriteString(" len=")
		expr(ev.Len)
		for _, a := range ev.Args {
			b.WriteString(" arg=")
			expr(a)
		}
		for _, g := range ev.Guards() {
			fmt.Fprintf(&b, " guard=%d:%v:%d-%d:", g.PC, g.Taken, g.Lo, g.Hi)
			expr(g.Cond)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// TestHeldTracesSurviveRecycling: traces returned by TraceFunction are the
// caller's. Hold a few from both golden corpora (with every node's string
// cached), recover both corpora at fan-out width 2, which recycles
// interners, slab chunks, event buffers and disassemblies on two
// goroutines at once, and the held traces, guard chains and their
// conditions included, must render byte-identically afterwards.
func TestHeldTracesSurviveRecycling(t *testing.T) {
	e1, err := corpus.Generate(corpus.DefaultConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	synth, err := corpus.GenerateSynthesized(1)
	if err != nil {
		t.Fatal(err)
	}
	entries := slices.Concat(e1.Entries, synth)
	var held []Trace
	var want []string
	for i := 0; i < len(entries); i += 97 {
		e := entries[i]
		tr := TraceFunction(evm.Disassemble(e.Code), e.Sig.Selector())
		if len(tr.Events) == 0 {
			continue // a function without parameters reads no call data
		}
		for _, ev := range tr.Events {
			for _, x := range []*Expr{ev.Off, ev.Val, ev.Src, ev.Len} {
				if x != nil {
					_ = x.String()
				}
			}
			for _, a := range ev.Args {
				_ = a.String()
			}
		}
		held = append(held, tr)
		want = append(want, renderTrace(tr))
	}
	if len(held) < 10 {
		t.Fatalf("held only %d traces with events", len(held))
	}
	if guards := strings.Count(strings.Join(want, ""), " guard="); guards < len(held) {
		t.Fatalf("%d held traces carry only %d guards", len(held), guards)
	}
	ctx := context.Background()
	for _, code := range slices.Concat(distinctCodes(e1.Entries), distinctCodes(synth)) {
		if _, err := RecoverContext(ctx, code, Options{workers: 2}); err != nil {
			t.Fatal(err)
		}
	}
	for i, tr := range held {
		if got := renderTrace(tr); got != want[i] {
			t.Fatalf("held trace %d changed while recoveries ran:\n%s", i, lineDiff(want[i], got, 5))
		}
	}
}

// TestPoolsDropOverCapBuffers: a recycled interner keeps its event buffer
// and dedup set, emptied and with no node left reachable, only while the
// trace stayed within maxPooledEvents, and its node table only up to
// maxPooledTable slots; an exploration state only while its memory and
// visit maps stayed within maxPooledStateMap entries; a disassembly goes
// back to its pool only while its buffers fit maxPooledProgramBytes. An
// adversarial trace or a large contract must not pin its memory in a pool.
func TestPoolsDropOverCapBuffers(t *testing.T) {
	fill := func(n int) *interner {
		it := &interner{seen: make(map[eventID]bool)}
		node := &Expr{Kind: KindConst}
		for i := 0; i < n; i++ {
			it.events = append(it.events, Event{Kind: EvCDL, PC: uint64(i), Off: node, Val: node})
			it.seen[eventID{kind: EvCDL, pc: uint64(i)}] = true
		}
		return it
	}

	small := fill(maxPooledEvents / 2)
	small.reset()
	if small.events == nil || small.seen == nil {
		t.Fatalf("a %d-event trace's buffer (cap %d) was dropped", maxPooledEvents/2, cap(small.events))
	}
	if len(small.events) != 0 || len(small.seen) != 0 {
		t.Fatalf("kept buffer not emptied: %d events, %d dedup keys", len(small.events), len(small.seen))
	}
	for i, ev := range small.events[:cap(small.events)] {
		if ev.Off != nil || ev.Val != nil {
			t.Fatalf("kept buffer slot %d still points at a node", i)
		}
	}

	big := fill(maxPooledEvents + 1)
	big.reset()
	if big.events != nil || big.seen != nil {
		t.Fatalf("a %d-event trace's buffer (cap %d) and dedup set stayed pooled", maxPooledEvents+1, cap(big.events))
	}

	// The node table: emptied and kept up to maxPooledTable slots, dropped
	// past them.
	table := func(nodes int) *interner {
		it := new(interner)
		for i := 0; i < nodes; i++ {
			it.constUint(uint64(numSmallConst + i))
		}
		return it
	}
	kept := table(maxPooledTable / 2)
	kept.clearTable()
	kept.reset()
	if len(kept.table) != maxPooledTable || kept.used != 0 {
		t.Fatalf("a %d-slot table was not kept empty: %d slots, %d used", maxPooledTable, len(kept.table), kept.used)
	}
	for i, e := range kept.table {
		if e != nil {
			t.Fatalf("kept table slot %d still points at a node", i)
		}
	}
	if e := kept.constUint(numSmallConst); e.id != 1 || kept.hits != 0 {
		t.Fatalf("the emptied table found a stale node: id %d, %d hits", e.id, kept.hits)
	}
	dropped := table(maxPooledTable)
	dropped.clearTable()
	if dropped.table != nil {
		t.Fatalf("a %d-slot table stayed pooled", 2*maxPooledTable)
	}

	// Exploration states: one whose memory map grew past maxPooledStateMap
	// is dropped. A concrete-bound loop is followed without a visit budget,
	// so a path storing one word per iteration grows its map past the cap.
	a := evm.NewAssembler()
	loop, exit := a.NewLabel(), a.NewLabel()
	a.Push(0) // i
	a.Bind(loop)
	a.Push(4 * maxPooledStateMap).Dup(2).Op(evm.LT).Op(evm.ISZERO).JumpI(exit)
	a.Dup(1).Dup(1).Push(32).Op(evm.MUL).Op(evm.MSTORE) // mem[32*i] = i
	a.Push(1).Op(evm.ADD)
	a.Jump(loop)
	a.Bind(exit)
	a.Op(evm.STOP)
	code, err := a.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	eng := newTASE(evm.Disassemble(code), nil, defaultLimits())
	st := eng.newState()
	for done := false; !done; {
		ins, ok := eng.program.At(st.pc)
		if !ok {
			break
		}
		_, done = eng.step(st, ins)
	}
	if len(st.mem) != 4*maxPooledStateMap {
		t.Fatalf("the loop stored %d words, want %d", len(st.mem), 4*maxPooledStateMap)
	}
	if eng.releaseState(st) {
		t.Fatalf("a state holding %d memory words stayed pooled", len(st.mem))
	}
	eng.it.recycle()
	pooled := eng.newState()
	pooled.stack = append(pooled.stack, &Expr{})
	for i := range maxPooledStateMap {
		pooled.mem[uint64(i)] = &Expr{}
		pooled.visits[uint64(i)] = 1
	}
	if !eng.releaseState(pooled) {
		t.Fatalf("a state holding %d memory words and visit counters was dropped", maxPooledStateMap)
	}
	if len(pooled.mem) != 0 || len(pooled.visits) != 0 || len(pooled.stack) != 0 || pooled.stack[:1][0] != nil {
		t.Fatalf("a pooled state's buffers were not emptied")
	}

	smallCode := make([]byte, 1024)
	bigCode := make([]byte, 24*1024) // an EIP-170-sized contract
	for i := range bigCode {
		bigCode[i] = byte(evm.JUMPDEST)
	}
	if !releaseProgram(loadProgram(smallCode)) {
		t.Fatal("a 1 KB contract's disassembly was not pooled")
	}
	p := loadProgram(bigCode)
	if releaseProgram(p) {
		t.Fatalf("a 24 KB contract's disassembly (%d B of buffers) was pooled", p.Bytes())
	}
}
