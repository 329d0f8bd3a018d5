package core

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"runtime/debug"
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

// TestHeldResultsSurviveRecycling: nothing a recovery returns aliases
// pooled memory. Every Result of dataset 2 (seed 1), recovered at fan-out
// widths 1 and 2, each way directly and through one shared Cache (whose
// hits hand out the stored Result itself), is held; 20 contracts of seed 2
// are then recovered the same ways, reusing every inference scratch,
// interner, slab chunk and disassembly the held recoveries used. Each held
// Result must still render as it did when it was returned.
func TestHeldResultsSurviveRecycling(t *testing.T) {
	held, err := corpus.GenerateSynthesized(1)
	if err != nil {
		t.Fatal(err)
	}
	other, err := corpus.GenerateSynthesized(2)
	if err != nil {
		t.Fatal(err)
	}
	cache := NewCache(256)
	ways := []Options{{workers: 1}, {workers: 2}, {workers: 1, Cache: cache}, {workers: 2, Cache: cache}}
	type heldResult struct {
		res  Result
		err  error
		want string
	}
	var results []heldResult
	ctx := context.Background()
	for _, code := range distinctCodes(held) {
		for _, opts := range ways {
			res, err := RecoverContext(ctx, code, opts)
			results = append(results, heldResult{res, err, renderResult(res, err)})
		}
	}
	for _, code := range distinctCodes(other)[:20] {
		for _, opts := range ways {
			if _, err := RecoverContext(ctx, code, opts); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i, h := range results {
		if got := renderResult(h.res, h.err); got != h.want {
			way := ways[i%len(ways)]
			t.Fatalf("held result of contract %d (width %d, cached %v) changed while recoveries ran:\n%s",
				i/len(ways), way.workers, way.Cache != nil, lineDiff(h.want, got, 5))
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
	node := &Expr{Kind: KindConst}
	fill := func(n int) *interner {
		it := new(interner)
		for i := 0; i < n; i++ {
			ev := Event{Kind: EvCDL, PC: uint64(i), Off: node, Val: node}
			it.record(ev)
			it.record(ev) // a duplicate: dropped
		}
		if len(it.events) != n {
			t.Fatalf("recorded %d distinct events twice each, the buffer holds %d", n, len(it.events))
		}
		return it
	}

	small := fill(maxPooledEvents / 2)
	small.reset()
	if small.events == nil || small.seen == nil {
		t.Fatalf("a %d-event trace's buffer (cap %d) was dropped", maxPooledEvents/2, cap(small.events))
	}
	if i := slices.IndexFunc(small.seen, func(s int32) bool { return s != 0 }); len(small.events) != 0 || i >= 0 {
		t.Fatalf("kept buffer not emptied: %d events, dedup slot %d still set", len(small.events), i)
	}
	for i, ev := range small.events[:cap(small.events)] {
		if ev.Off != nil || ev.Val != nil {
			t.Fatalf("kept buffer slot %d still points at a node", i)
		}
	}
	small.record(Event{Kind: EvCDL, PC: 1, Off: node, Val: node})
	if len(small.events) != 1 {
		t.Fatalf("the emptied dedup set still holds a recycled event")
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

	// Inference scratch: one that grew past maxPooledInferBytes is dropped,
	// here over a synthetic trace of 8,192 nodes; one within it goes back
	// with every buffer emptied, here over a sample of dataset 2.
	chain := new(interner)
	x := chain.cdata(chain.constUint(4))
	for i := 0; i < 4*maxPooledTable; i++ {
		x = chain.app(evm.ADD, x, chain.constUint(uint64(numSmallConst+i)))
	}
	chain.record(Event{Kind: EvCDL, PC: 1, Off: x, Val: chain.cdata(x)})
	over := new(inference)
	over.infer(Trace{Events: chain.events, it: chain})
	if over.release() {
		t.Fatalf("the scratch of a %d-node trace (%d B) was pooled", chain.nextID, over.bytes())
	}
	synth, err := corpus.GenerateSynthesized(1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(synth); i += 10 {
		e := synth[i]
		inf := new(inference)
		inf.infer(TraceFunction(evm.Disassemble(e.Code), e.Sig.Selector()))
		used := inf.bytes()
		if !inf.release() {
			t.Fatalf("%s: a %d B scratch was dropped", e.Sig, used)
		}
		if d := dirtyScratch(reflect.ValueOf(inf).Elem(), "inference"); d != "" {
			t.Fatalf("%s: a pooled scratch is not empty: %s", e.Sig, d)
		}
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

// dirtyScratch names the first part of a released inference scratch that
// is not empty: a field that is not zero, a buffer with a length, or a
// buffer slot up to its capacity that is not zero. The buffers named in
// plainBuffers hold plain values written before they are read, so only
// their lengths count.
func dirtyScratch(v reflect.Value, name string) string {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if d := dirtyScratch(v.Field(i), name+"."+v.Type().Field(i).Name); d != "" {
				return d
			}
		}
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			if d := dirtyScratch(v.Index(i), fmt.Sprintf("%s[%d]", name, i)); d != "" {
				return d
			}
		}
	case reflect.Slice:
		if v.Len() != 0 {
			return fmt.Sprintf("%s has length %d", name, v.Len())
		}
		if plainBuffers[name[strings.LastIndexByte(name, '.')+1:]] {
			return ""
		}
		full := v.Slice(0, v.Cap())
		for i := 0; i < full.Len(); i++ {
			if !full.Index(i).IsZero() {
				return fmt.Sprintf("%s[%d] (past its length) is not zero", name, i)
			}
		}
	default:
		if !v.IsZero() {
			return name + " is not zero"
		}
	}
	return ""
}

var plainBuffers = map[string]bool{"trail": true, "items": true, "dims": true}

// TestInferAllocsFlat: inference takes its scratch from a pool, so once
// warm, inferRecycled over a trace allocates its output only: the type
// list, the trail index and one array of rule ids, plus the element types
// of array, slice and tuple parameters. Over every function of dataset 2
// (seed 1) that is at most inferAllocsFixed plus one per recovered
// parameter; a scratch built afresh on every call made 9 to 53. The
// collector stays off while it counts: a collection empties every
// sync.Pool, and the first Put after one allocates the pool's per-P
// storage again. The race detector's sync.Pool drops a random share of
// what is put back, so a -race build checks the outputs only: each must
// match inference over an unrecycled trace.
func TestInferAllocsFlat(t *testing.T) {
	const inferAllocsFixed = 3
	synth, err := corpus.GenerateSynthesized(1)
	if err != nil {
		t.Fatal(err)
	}
	render := func(d Inferred) string {
		return fmt.Sprintf("%v %v %v %v", d.Types, d.ParamRules, d.Language, d.Stats)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var worst uint64
	for _, e := range synth {
		program := evm.Disassemble(e.Code)
		sel := e.Sig.Selector()
		var out Inferred
		infer := func() uint64 {
			tr, _ := traceFunctionEngine(program, sel, defaultLimits())
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			out = inferRecycled(tr)
			runtime.ReadMemStats(&after)
			return after.Mallocs - before.Mallocs
		}
		infer()
		infer()
		got := infer()
		if want := render(Infer(TraceFunction(program, sel))); render(out) != want {
			t.Fatalf("%s: recycled inference gives %s, an unrecycled trace %s", e.Sig, render(out), want)
		}
		if excess := got - min(got, uint64(len(out.Types))); excess > worst {
			worst = excess
		}
		if ceiling := inferAllocsFixed + uint64(len(out.Types)); got > ceiling && !raceEnabled {
			t.Errorf("%s: %d allocs for %d parameters, above the ceiling of %d", e.Sig, got, len(out.Types), ceiling)
		}
	}
	t.Logf("at most %d allocs past one per parameter", worst)
}
