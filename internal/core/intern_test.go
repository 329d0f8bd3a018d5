package core

import (
	"cmp"
	"context"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"sigrec/internal/abi"
	"sigrec/internal/corpus"
	"sigrec/internal/evm"
)

func TestInternerCanonicalizesConstruction(t *testing.T) {
	it := newInterner()
	defer it.release()

	a := it.constUint(42)
	b := it.constUint(42)
	if a != b {
		t.Fatalf("equal constants interned to distinct nodes")
	}
	if a == it.constUint(43) {
		t.Fatalf("distinct constants interned to the same node")
	}

	off := it.constUint(4)
	cd1 := it.cdata(off)
	cd2 := it.cdata(it.constUint(4))
	if cd1 != cd2 {
		t.Fatalf("equal cd[4] nodes interned to distinct nodes")
	}

	app1 := it.app(evm.AND, cd1, it.constUint(0xff))
	app2 := it.app(evm.AND, cd2, it.constUint(0xff))
	if app1 != app2 {
		t.Fatalf("equal applications interned to distinct nodes")
	}
	if app1 == it.app(evm.AND, it.constUint(0xff), cd1) {
		t.Fatalf("argument order ignored by interning")
	}
	if app1.id == 0 {
		t.Fatalf("interned node has no id")
	}
	if it.hits == 0 || it.misses == 0 {
		t.Fatalf("hit/miss counters not maintained: hits=%d misses=%d", it.hits, it.misses)
	}
}

func TestInternerAppDoesNotAliasScratch(t *testing.T) {
	it := newInterner()
	defer it.release()

	scratch := [3]*Expr{it.constUint(1), it.constUint(2)}
	e := it.appN(evm.ADD, scratch[:2])
	scratch[0], scratch[1] = nil, nil // simulate scratch reuse
	if e.Args[0] == nil || e.Args[1] == nil {
		t.Fatalf("interned node aliases caller scratch space")
	}
}

func TestInternerReleaseIsolation(t *testing.T) {
	it := newInterner()
	first := it.constUint(7)
	if it.nextID == 0 {
		t.Fatalf("expected an installed node")
	}
	it.release()
	it2 := newInterner()
	defer it2.release()
	if it2.nextID != 0 || it2.hits != 0 || it2.misses != 0 {
		t.Fatalf("pooled interner counters not reset: nextID=%d hits=%d misses=%d",
			it2.nextID, it2.hits, it2.misses)
	}
	// Entries from the previous trace are generation-dead: the same key
	// must come back as a fresh node with a fresh id, not the stale one.
	again := it2.constUint(7)
	if again == first {
		t.Fatalf("stale canonical node leaked across release()")
	}
	if it2.hits != 0 || it2.misses != 1 {
		t.Fatalf("expected a clean miss after release: hits=%d misses=%d", it2.hits, it2.misses)
	}
}

// TestInternerRecycleConcurrent runs recoveries on several goroutines at
// once, so slab chunks recycled by one trace are carved again by others,
// and holds every result until all are done. Each must still equal its
// sequential run, and each function must equal inference over a
// TraceFunction trace (never recycled): nothing a recovery returns may alias
// a recycled node, and no chunk may be recycled before inference is done
// with it. TraceFunction traces taken before the recoveries, guard chains
// included, must render the same after them. A recycled chunk must come
// back zeroed, although recycle clears only the prefix a trace carved, and
// the recycled interner must hold no small constant.
func TestInternerRecycleConcurrent(t *testing.T) {
	c, err := corpus.Generate(corpus.Config{Seed: 5, Solidity: 40, Vyper: 10, MaxParams: 4})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	want := make([]string, len(c.Entries))
	heldTraces := make([]Trace, len(c.Entries))
	heldRenders := make([]string, len(c.Entries))
	for i, e := range c.Entries {
		res, err := RecoverContext(ctx, e.Code, Options{})
		want[i] = renderResult(res, err)
		heldTraces[i] = TraceFunction(evm.Disassemble(e.Code), e.Sig.Selector())
		heldRenders[i] = renderTrace(heldTraces[i])
	}
	const workers = 4
	type held struct {
		res Result
		err error
	}
	got := make([][]held, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		got[w] = make([]held, len(c.Entries))
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := range c.Entries {
				i := (k + 7*w) % len(c.Entries)
				res, err := RecoverContext(ctx, c.Entries[i].Code, Options{workers: 1 + w%2})
				got[w][i] = held{res, err}
			}
		}(w)
	}
	wg.Wait()
	reference := func(code []byte, sel abi.Selector) RecoveredFunction {
		tr := TraceFunction(evm.Disassemble(code), sel)
		d := Infer(tr)
		return RecoveredFunction{Selector: sel, Inputs: d.Types, ParamRules: d.ParamRules,
			Language: d.Language, Truncated: tr.Truncated}
	}
	checked := 0
	for w := range got {
		for i, h := range got[w] {
			if r := renderResult(h.res, h.err); r != want[i] {
				t.Fatalf("worker %d entry %d: held result diverges\ngot:\n%s\nwant:\n%s", w, i, r, want[i])
			}
			for _, f := range h.res.Functions {
				if got, ref := renderFunction(f), renderFunction(reference(c.Entries[i].Code, f.Selector)); got != ref {
					t.Fatalf("worker %d entry %d: %s, unrecycled trace says %s", w, i, got, ref)
				}
				checked++
			}
		}
	}
	if checked < len(c.Entries) {
		t.Fatalf("only %d functions checked over %d entries", checked, len(c.Entries))
	}
	guarded := 0
	for i, tr := range heldTraces {
		if got := renderTrace(tr); got != heldRenders[i] {
			t.Fatalf("entry %d: held trace changed while recoveries ran:\n%s", i, lineDiff(heldRenders[i], got, 5))
		}
		guarded += strings.Count(heldRenders[i], " guard=")
	}
	if guarded == 0 {
		t.Fatal("no held trace carries a guard")
	}

	// A trace over more than one chunk of nodes and guards, and some copy
	// regions: recycle must leave every chunk it carved from zeroed.
	it := newInterner()
	var guards *guardNode
	var copies *copyNode
	for i := 0; i < internSlabLen+internSlabLen/2; i++ {
		e := it.constUint(uint64(1000 + i))
		e.Env = "x"
		it.constUint(uint64(i % numSmallConst))
		it.app(evm.ADD, e, e)
		guards = it.pushGuard(guards, Guard{PC: uint64(i), Cond: e, Taken: true, Lo: 1, Hi: 2})
		if i%16 == 0 {
			copies = it.pushCopy(copies, uint64(i), e, e)
		}
	}
	exprs, args := chunksOf(it.exprs), chunksOf(it.args)
	guardChunks, copyChunks := chunksOf(it.guards), chunksOf(it.copies)
	if len(exprs) < 2 || len(guardChunks) < 2 {
		t.Fatal("the trace fills less than one chunk of nodes or guards")
	}
	it.recycle()
	checkZeroed(t, "expr", exprs)
	checkZeroed(t, "args", args)
	checkZeroed(t, "guard", guardChunks)
	checkZeroed(t, "copy", copyChunks)
	for v, e := range it.smallConst {
		if e != nil {
			t.Fatalf("recycled interner still holds small constant %d", v)
		}
	}
}

// chunksOf lists a slab's chunks (recycle unlinks them).
func chunksOf[T any](s slab[T]) []*chunk[T] {
	var out []*chunk[T]
	for c := s.chunks; c != nil; c = c.next {
		out = append(out, c)
	}
	return out
}

// checkZeroed fails t unless every slot of every chunk is zero.
func checkZeroed[T any](t *testing.T, name string, chunks []*chunk[T]) {
	t.Helper()
	for _, c := range chunks {
		for i := range c.items {
			if !reflect.ValueOf(&c.items[i]).Elem().IsZero() {
				t.Fatalf("slot %d of a recycled %s chunk is not zeroed: %+v", i, name, c.items[i])
			}
		}
	}
}

// TestInternedTaintMatchesTreeWalk: the call-data taint bit the interner
// sets at install equals a plain walk of the operand tree, for every node
// the golden corpora's explorations install (E1 seed 1 and dataset 2 seed
// 1: each contract's dispatcher walk and each declared function's trace).
// The check reads the interner's slabs, not the recorded events, because
// which events get recorded depends on the bit itself.
func TestInternedTaintMatchesTreeWalk(t *testing.T) {
	e1, err := corpus.Generate(corpus.DefaultConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	synth, err := corpus.GenerateSynthesized(1)
	if err != nil {
		t.Fatal(err)
	}
	var nodes, tainted int
	check := func(it *interner) {
		for c := it.exprs.chunks; c != nil; c = c.next {
			for i := range it.exprs.carved(c) {
				e := &c.items[i]
				nodes++
				want := containsCDataTree(e)
				if got := e.ContainsCData(); got != want {
					t.Fatalf("%s: taint bit %v, tree walk %v", e, got, want)
				}
				if want {
					tainted++
				}
			}
		}
		it.recycle()
	}
	walked := make(map[string]bool)
	for _, e := range slices.Concat(e1.Entries, synth) {
		program := evm.Disassemble(e.Code)
		if !walked[string(e.Code)] {
			walked[string(e.Code)] = true
			walk := newTASE(program, nil, defaultLimits())
			walk.run()
			check(walk.it)
		}
		check(TraceFunction(program, e.Sig.Selector()).it)
	}
	if tainted == 0 || tainted == nodes {
		t.Fatalf("checked %d nodes, %d tainted: the corpora should yield both kinds", nodes, tainted)
	}
}

// traceNodes returns every node an interner installed, in id order (which
// is construction order: a node's operands always precede it).
func traceNodes(it *interner) []*Expr {
	var nodes []*Expr
	for c := it.exprs.chunks; c != nil; c = c.next {
		for i := range it.exprs.carved(c) {
			nodes = append(nodes, &c.items[i])
		}
	}
	slices.SortFunc(nodes, func(a, b *Expr) int { return cmp.Compare(a.id, b.id) })
	return nodes
}

// reintern builds n's counterpart in it from the counterparts of its
// operands.
func reintern(it *interner, n *Expr, twin map[*Expr]*Expr) *Expr {
	switch n.Kind {
	case KindConst:
		return it.constW(*n.Conc)
	case KindCData:
		return it.cdata(twin[n.Args[0]])
	case KindCSize:
		return it.csize()
	case KindEnv:
		return it.fresh(n.Env)
	default:
		args := make([]*Expr, len(n.Args))
		for i, a := range n.Args {
			args[i] = twin[a]
		}
		return it.appN(n.Op, args)
	}
}

// TestNodeTableIdentity: over every exploration of both golden corpora
// (E1 seed 1 and dataset 2 seed 1, dispatcher walks included) and one
// synthetic trace too large for the table pool, the nodes one trace
// installed, rebuilt in a fresh interner in construction order, all miss:
// no two installed nodes share a structural key. Looked up again, each is
// found by its own key and comes back as the same node. The fresh tables
// grow from minNodeTable as the traces' do, so the check crosses several
// resizes, and the synthetic trace's table grows past maxPooledTable.
func TestNodeTableIdentity(t *testing.T) {
	e1, err := corpus.Generate(corpus.DefaultConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	synth, err := corpus.GenerateSynthesized(1)
	if err != nil {
		t.Fatal(err)
	}
	var traces, maxTable int
	check := func(orig *interner) {
		defer orig.recycle()
		nodes := traceNodes(orig)
		it := new(interner) // not pooled: its table starts at minNodeTable
		defer it.recycle()
		twin := make(map[*Expr]*Expr, len(nodes))
		for _, n := range nodes {
			twin[n] = reintern(it, n, twin)
			if it.hits != 0 {
				t.Fatalf("%s installed twice: it shares a structural key with an earlier node", n)
			}
		}
		if it.misses != orig.misses {
			t.Fatalf("rebuilt %d nodes, the trace installed %d", it.misses, orig.misses)
		}
		for _, n := range nodes {
			if n.Kind == KindEnv {
				continue // fresh by construction: an environment value has no key
			}
			if got := reintern(it, n, twin); got != twin[n] {
				t.Fatalf("%s: its own key finds %s", n, got)
			}
		}
		if it.misses != orig.misses {
			t.Fatalf("a lookup of an installed node missed")
		}
		traces++
		maxTable = max(maxTable, len(it.table))
	}
	walked := make(map[string]bool)
	for _, e := range slices.Concat(e1.Entries, synth) {
		program := evm.Disassemble(e.Code)
		if !walked[string(e.Code)] {
			walked[string(e.Code)] = true
			walk := newTASE(program, nil, defaultLimits())
			walk.run()
			check(walk.it)
		}
		check(TraceFunction(program, e.Sig.Selector()).it)
	}
	if maxTable < minNodeTable<<3 {
		t.Fatalf("the largest golden table has %d slots: fewer than three resizes from %d", maxTable, minNodeTable)
	}
	big := new(interner)
	x := big.cdata(big.constUint(4))
	for i := 0; i < 2*maxPooledTable; i++ {
		x = big.app(evm.ADD, x, big.constUint(uint64(numSmallConst+i)))
	}
	check(big)
	if maxTable <= maxPooledTable {
		t.Fatalf("the synthetic trace's table has %d slots, within the %d-slot pool cap", maxTable, maxPooledTable)
	}
	t.Logf("%d traces, largest table %d slots", traces, maxTable)
}

// cloneTrace copies a trace's events onto nodes and guard chains built
// outside any interner (id 0), keeping the sharing of the original: one
// node or guard link of the trace becomes one of the clone.
func cloneTrace(tr Trace) Trace {
	twin := make(map[*Expr]*Expr)
	var clone func(e *Expr) *Expr
	clone = func(e *Expr) *Expr {
		if e == nil {
			return nil
		}
		if c, ok := twin[e]; ok {
			return c
		}
		c := &Expr{Kind: e.Kind, Conc: e.Conc, Op: e.Op, Env: e.Env, Seq: e.Seq}
		for _, a := range e.Args {
			c.Args = append(c.Args, clone(a))
		}
		twin[e] = c
		return c
	}
	links := make(map[*guardNode]*guardNode)
	var cloneGuards func(n *guardNode) *guardNode
	cloneGuards = func(n *guardNode) *guardNode {
		if n == nil {
			return nil
		}
		if c, ok := links[n]; ok {
			return c
		}
		c := &guardNode{Guard: n.Guard, parent: cloneGuards(n.parent), depth: n.depth}
		c.Cond = clone(n.Cond)
		links[n] = c
		return c
	}
	out := Trace{Selector: tr.Selector, Truncated: tr.Truncated}
	for _, ev := range tr.Events {
		ev.Off, ev.Val, ev.Src, ev.Len = clone(ev.Off), clone(ev.Val), clone(ev.Src), clone(ev.Len)
		args := make([]*Expr, len(ev.Args))
		for i, a := range ev.Args {
			args[i] = clone(a)
		}
		ev.Args = args
		ev.guards = cloneGuards(ev.guards)
		out.Events = append(out.Events, ev)
	}
	return out
}

// TestHandBuiltTraceInfersAlike: a trace whose nodes were built outside an
// interner (id 0, so no per-node memo slot) infers exactly as the
// interned trace it copies, over a sample of both golden corpora.
func TestHandBuiltTraceInfersAlike(t *testing.T) {
	e1, err := corpus.Generate(corpus.DefaultConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	synth, err := corpus.GenerateSynthesized(1)
	if err != nil {
		t.Fatal(err)
	}
	render := func(d Inferred) string {
		return fmt.Sprintf("%v %v %v %v", d.Types, d.ParamRules, d.Language, d.Stats)
	}
	entries := slices.Concat(e1.Entries, synth)
	checked := 0
	for i := 0; i < len(entries); i += 7 {
		e := entries[i]
		tr := TraceFunction(evm.Disassemble(e.Code), e.Sig.Selector())
		want, got := render(Infer(tr)), render(Infer(cloneTrace(tr)))
		if got != want {
			t.Fatalf("entry %d (%s): hand-built trace infers %s, interned %s", i, e.Sig, got, want)
		}
		checked++
	}
	if checked < 400 {
		t.Fatalf("only %d traces checked", checked)
	}
}

// TestMaskFormNormalForm: a MOD by a power of two and a shift round trip
// intern to the AND mask they compute, the very node AND(x, mask) is; the
// shapes that are not a mask keep their op.
func TestMaskFormNormalForm(t *testing.T) {
	it := newInterner()
	defer it.release()
	x := it.cdata(it.constUint(4))
	c := it.constUint
	if mod, and := it.app(evm.MOD, x, c(256)), it.app(evm.AND, x, c(255)); mod != and {
		t.Fatalf("MOD(x, 256) interned as %s, AND(x, 255) as %s", mod, and)
	}
	for _, tc := range []struct {
		name string
		e    *Expr
		want evm.Op
	}{
		{"MOD(x, 2^160)", it.app(evm.MOD, x, it.constW(evm.OneWord.Shl(evm.WordFromUint64(160)))), evm.AND},
		{"SHR(96, SHL(96, x))", it.app(evm.SHR, c(96), it.app(evm.SHL, c(96), x)), evm.AND},
		{"SHL(224, SHR(224, x))", it.app(evm.SHL, c(224), it.app(evm.SHR, c(224), x)), evm.AND},
		{"MOD(x, 10)", it.app(evm.MOD, x, c(10)), evm.MOD},
		{"MOD(x, 1)", it.app(evm.MOD, x, c(1)), evm.MOD},
		{"MOD(x, 0)", it.app(evm.MOD, x, c(0)), evm.MOD},
		{"MOD(x, y)", it.app(evm.MOD, x, it.cdata(c(36))), evm.MOD},
		{"MOD(7, 256)", it.app(evm.MOD, c(7), c(256)), evm.MOD},
		{"SHR(8, SHL(16, x))", it.app(evm.SHR, c(8), it.app(evm.SHL, c(16), x)), evm.SHR},
		{"SHR(0, SHL(0, x))", it.app(evm.SHR, c(0), it.app(evm.SHL, c(0), x)), evm.SHR},
		{"SHL(256, SHR(256, x))", it.app(evm.SHL, c(256), it.app(evm.SHR, c(256), x)), evm.SHL},
		{"SHR(8, SHR(8, x))", it.app(evm.SHR, c(8), it.app(evm.SHR, c(8), x)), evm.SHR},
	} {
		if tc.e.Op != tc.want {
			t.Errorf("%s interned as %s, want op %s", tc.name, tc.e, tc.want)
		}
	}
}

// FuzzMaskForm is the soundness gate of maskForm: for every k and s in
// 1..255, each accepted shape built over a symbolic atom must intern to an
// AND of that atom whose value, with the atom bound to the fuzzed x, is
// the value of the shape it replaced.
func FuzzMaskForm(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x80})
	f.Add(evm.MaxWord.Bytes())
	f.Add([]byte("\x01\x23\x45\x67\x89\xab\xcd\xef\xfe\xdc\xba\x98\x76\x54\x32\x10"))
	f.Fuzz(func(t *testing.T, raw []byte) {
		x := evm.WordFromBytes(raw)
		it := newInterner()
		defer it.release()
		atom := it.cdata(it.constUint(4))
		fold := func(op evm.Op, a ...evm.Word) evm.Word {
			w, _ := foldOp(op, a)
			return w
		}
		check := func(shape string, e *Expr, want evm.Word) {
			if e.Op != evm.AND || len(e.Args) != 2 || e.Args[0] != atom || e.Args[1].Conc == nil {
				t.Fatalf("%s interned as %s, want AND(atom, mask)", shape, e)
			}
			if got := fold(evm.AND, x, *e.Args[1].Conc); !got.Eq(want) {
				t.Fatalf("%s at x=%s: the AND gives %s, the shape %s", shape, x, got, want)
			}
		}
		for n := uint64(1); n <= 255; n++ {
			w := evm.WordFromUint64(n)
			s := it.constW(w)
			pow := evm.OneWord.Shl(w)
			check(fmt.Sprintf("MOD(x, 2^%d)", n), it.app(evm.MOD, atom, it.constW(pow)),
				fold(evm.MOD, x, pow))
			check(fmt.Sprintf("SHR(%d, SHL(%d, x))", n, n), it.app(evm.SHR, s, it.app(evm.SHL, s, atom)),
				fold(evm.SHR, w, fold(evm.SHL, w, x)))
			check(fmt.Sprintf("SHL(%d, SHR(%d, x))", n, n), it.app(evm.SHL, s, it.app(evm.SHR, s, atom)),
				fold(evm.SHL, w, fold(evm.SHR, w, x)))
		}
	})
}
