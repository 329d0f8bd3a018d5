package core

import (
	"sync"

	"sigrec/internal/evm"
)

// interner hash-conses Expr nodes for one TASE exploration: structurally
// identical expressions are canonicalized to a single immutable node and
// assigned a small integer id. Because every canonical node's children are
// themselves canonical, the structural hash and the equality check are both
// shallow — a key of scalar fields plus child *pointers* — so lookups never
// recurse and pointer equality substitutes for deep comparison everywhere
// downstream (event dedup, common-subexpression reuse).
//
// An interner is confined to a single goroutine and lives for one trace. It
// also holds the trace's event buffer and event dedup set, so everything a
// trace can hand back for reuse hangs off this one struct.
//
// What is pooled, and what is not:
//   - The struct itself (internerPool): smallConst makes it 2 KiB, and every
//     recovery builds one for the dispatcher walk and one per selector.
//   - The Expr, Word and Args slab chunks (exprChunkPool, wordChunkPool,
//     argChunkPool): fixed-size arrays, whatever the trace's size.
//   - The event buffer and the dedup set ride along in the pooled struct, up
//     to maxPooledEvents; a larger trace's buffer and set are dropped, so an
//     adversarial trace cannot pin its event slice in the pool.
//   - The node tables (apps, consts) are NOT pooled: clearing a map costs a
//     full-table memclr that small traces would pay at the previous trace's
//     high-water size, and generation-stamping retains stale trees that
//     bloat the GC-scanned heap. A fresh small table that grows to the
//     trace's own size measures faster than both. The dedup set is cheap to
//     pool by comparison: it holds one small entry per event, and the cap
//     bounds what a clear can cost.
//
// Only the recovery pipeline recycles, and only once nothing can reach the
// trace (see recycle). Traces handed to callers (TraceFunction) keep their
// interner, so a caller may hold their events and nodes for as long as it
// likes.
//
// Nodes are split across tables by kind so every key is compact —
// applications hash 32 bytes (three child pointers plus a packed tag)
// instead of one wide struct carrying a Word and a string for all kinds.
// Environment nodes need no table: each is fresh by construction.
type interner struct {
	// apps holds KindApp, KindCData, and KindCSize nodes; the tag packs
	// kind, opcode, and arity.
	apps map[appInternKey]*Expr
	// consts holds constant nodes too large for the smallConst cache.
	consts map[evm.Word]*Expr

	nextID uint32
	// envSeq numbers the environment nodes of this trace.
	envSeq int
	// hits/misses meter the hash-consing effectiveness; the engine copies
	// them onto its tase when exploration ends (the interner may be
	// recycled before the counters are read).
	hits, misses uint64

	// events and seen are the trace's event buffer and dedup set (see
	// tase.record). They survive recycle up to maxPooledEvents, so the
	// next trace appends into the same memory.
	events []Event
	seen   map[eventID]bool

	// Slabs back the canonical nodes: every install carves its Expr, its
	// concrete Word, and its Args array out of chunked arrays instead of
	// individual heap objects. Nodes are immutable and share the trace's
	// lifetime (nothing outlives the recovery holding an *Expr), so whole
	// chunks die together and the per-node allocation disappears; the
	// recovery pipeline goes further and recycles the chunks into the next
	// trace (see recycle).
	exprSlab []Expr
	wordSlab []evm.Word
	argSlab  []*Expr
	// The chunk lists chain the pooled chunks behind the slabs, newest
	// first, so recycle can hand them back.
	exprChunks *exprChunk
	wordChunks *wordChunk
	argChunks  *argChunk

	// smallConst holds the canonical nodes for constants 0..255 instead
	// of the consts table — stack offsets, head offsets, and mask widths
	// dominate constW traffic, and a direct index avoids hashing.
	smallConst [256]*Expr
}

// appInternKey is the shallow structural identity of an application-shaped
// node. Child pointers are canonical, so pointer equality on a0..a2 is
// structural equality of the subtrees. Pure EVM opcodes pop at most three
// operands (ADDMOD and MULMOD), which bounds the arity.
type appInternKey struct {
	a0, a1, a2 *Expr
	tag        uint32
}

// appTag packs the discriminating scalars of an application-shaped node.
func appTag(kind ExprKind, op evm.Op, nargs int) uint32 {
	return uint32(kind)<<16 | uint32(op)<<8 | uint32(nargs)
}

const (
	internSlabLen = 128
	// maxPooledEvents caps the event buffer (and so the dedup set, one
	// entry per event) a recycled interner keeps: 512 events are 60 KiB of
	// buffer, above every trace of the golden corpora and far below what
	// a budget-bound adversarial trace collects.
	maxPooledEvents = 512
)

// The pooled slab chunks, linked through next so an interner can track the
// chunks it holds without allocating.
type exprChunk struct {
	nodes [internSlabLen]Expr
	next  *exprChunk
}

type wordChunk struct {
	words [internSlabLen]evm.Word
	next  *wordChunk
}

type argChunk struct {
	args [internSlabLen]*Expr
	next *argChunk
}

// The pools recycle interners and slab chunks from one trace to the next.
// A recovery's heap is otherwise almost all garbage, so reusing them sets
// how often the collector runs. Expr and Args chunks go back zeroed (they
// hold pointers); word chunks need no clearing, newWord overwrites each
// slot.
var (
	internerPool  = sync.Pool{New: func() any { return new(interner) }}
	exprChunkPool = sync.Pool{New: func() any { return new(exprChunk) }}
	wordChunkPool = sync.Pool{New: func() any { return new(wordChunk) }}
	argChunkPool  = sync.Pool{New: func() any { return new(argChunk) }}
)

// newExpr carves one zeroed node from the slab.
func (it *interner) newExpr() *Expr {
	if len(it.exprSlab) == 0 {
		c := exprChunkPool.Get().(*exprChunk)
		c.next, it.exprChunks = it.exprChunks, c
		it.exprSlab = c.nodes[:]
	}
	e := &it.exprSlab[0]
	it.exprSlab = it.exprSlab[1:]
	return e
}

// newWord stores w in the word slab and returns its address.
func (it *interner) newWord(w evm.Word) *evm.Word {
	if len(it.wordSlab) == 0 {
		c := wordChunkPool.Get().(*wordChunk)
		c.next, it.wordChunks = it.wordChunks, c
		it.wordSlab = c.words[:]
	}
	p := &it.wordSlab[0]
	it.wordSlab = it.wordSlab[1:]
	*p = w
	return p
}

// ownArgs copies the operands into slab-backed storage (callers pass
// scratch arrays that must not be aliased by the canonical node).
func (it *interner) ownArgs(args []*Expr) []*Expr {
	n := len(args)
	if n == 0 {
		return nil
	}
	if len(it.argSlab) < n {
		c := argChunkPool.Get().(*argChunk)
		c.next, it.argChunks = it.argChunks, c
		it.argSlab = c.args[:]
	}
	owned := it.argSlab[:n:n]
	it.argSlab = it.argSlab[n:]
	copy(owned, args)
	return owned
}

// newInterner takes an interner from the pool with fresh node tables.
func newInterner() *interner {
	it := internerPool.Get().(*interner)
	// No size hints: most traces are small, and empty tables are cheap.
	it.apps = make(map[appInternKey]*Expr)
	it.consts = make(map[evm.Word]*Expr)
	if it.seen == nil {
		it.seen = make(map[eventID]bool)
	}
	return it
}

// release drops the lookup structures. The canonical nodes themselves live
// on in the recorded events.
func (it *interner) release() {
	it.apps, it.consts = nil, nil
}

// recycle returns the interner and its slab chunks to their pools. Call it
// only once no node this interner installed and no event it buffered can
// be reached: inferRecycled calls it after inference over a trace, and the
// dispatcher walk after reading the selectors out of its events. Traces
// handed to callers (TraceFunction) are never recycled. Nil-safe.
func (it *interner) recycle() {
	if it == nil {
		return
	}
	for c := it.exprChunks; c != nil; {
		next := c.next
		*c = exprChunk{}
		exprChunkPool.Put(c)
		c = next
	}
	for c := it.wordChunks; c != nil; {
		next := c.next
		c.next = nil
		wordChunkPool.Put(c)
		c = next
	}
	for c := it.argChunks; c != nil; {
		next := c.next
		*c = argChunk{}
		argChunkPool.Put(c)
		c = next
	}
	it.reset()
	internerPool.Put(it)
}

// reset zeroes the interner for its next trace, keeping the event buffer
// and dedup set (emptied) only when the trace stayed within
// maxPooledEvents.
func (it *interner) reset() {
	events, seen := it.events, it.seen
	if cap(events) > maxPooledEvents { // seen holds one entry per event
		events, seen = nil, nil
	} else {
		clear(events) // drop node references so the pool pins no trace
		clear(seen)
	}
	*it = interner{events: events[:0], seen: seen}
}

// assignID gives e the next id and counts the install.
func (it *interner) assignID(e *Expr) *Expr {
	it.misses++
	it.nextID++
	e.id = it.nextID
	return e
}

// constW returns the canonical constant node for w.
func (it *interner) constW(w evm.Word) *Expr {
	v, small := w.Uint64()
	small = small && v < uint64(len(it.smallConst))
	var e *Expr
	if small {
		e = it.smallConst[v]
	} else {
		e = it.consts[w]
	}
	if e != nil {
		it.hits++
		return e
	}
	e = it.newExpr()
	e.Kind = KindConst
	e.Conc = it.newWord(w)
	it.assignID(e)
	if small {
		it.smallConst[v] = e
	} else {
		it.consts[w] = e
	}
	return e
}

// constUint is constW for small values.
func (it *interner) constUint(v uint64) *Expr { return it.constW(evm.WordFromUint64(v)) }

// cdata returns the canonical CALLDATALOAD(off) node; off must be canonical.
func (it *interner) cdata(off *Expr) *Expr {
	k := appInternKey{tag: appTag(KindCData, 0, 1), a0: off}
	if e, ok := it.apps[k]; ok {
		it.hits++
		return e
	}
	e := it.newExpr()
	e.Kind = KindCData
	e.Args = it.ownArgs([]*Expr{off})
	e.cdata = true
	it.assignID(e)
	it.apps[k] = e
	return e
}

// csize returns the canonical CALLDATASIZE node.
func (it *interner) csize() *Expr {
	k := appInternKey{tag: appTag(KindCSize, 0, 0)}
	if e, ok := it.apps[k]; ok {
		it.hits++
		return e
	}
	e := it.newExpr()
	e.Kind = KindCSize
	it.assignID(e)
	it.apps[k] = e
	return e
}

// fresh returns a new environment value labelled label. Its sequence
// number is unique in the trace, so it never matches an existing node and
// installs without a lookup; the id gives it an integer event key.
func (it *interner) fresh(label string) *Expr {
	it.envSeq++
	e := it.newExpr()
	e.Kind = KindEnv
	e.Env = label
	e.Seq = it.envSeq
	return it.assignID(e)
}

// appKey builds the application key over canonical operands.
func appKey(op evm.Op, args []*Expr) appInternKey {
	k := appInternKey{tag: appTag(KindApp, op, len(args))}
	switch len(args) {
	case 3:
		k.a2 = args[2]
		fallthrough
	case 2:
		k.a1 = args[1]
		fallthrough
	case 1:
		k.a0 = args[0]
	}
	return k
}

// app returns the canonical Op(args...) node, folding concretely on first
// construction; args must be canonical and at most three (every pure EVM
// opcode satisfies this). The args slice is only retained on a miss.
func (it *interner) app(op evm.Op, args ...*Expr) *Expr {
	return it.appN(op, args)
}

// appN is app without the variadic copy, for callers that already hold a
// slice (or a sub-slice of a scratch array — a slab copy is made on miss
// so the canonical node never aliases caller scratch space).
func (it *interner) appN(op evm.Op, args []*Expr) *Expr {
	k := appKey(op, args)
	if e, ok := it.apps[k]; ok {
		it.hits++
		return e
	}
	e := it.newExpr()
	e.Kind = KindApp
	e.Op = op
	e.Args = it.ownArgs(args)
	if w, ok := foldArgs(op, args); ok {
		e.Conc = it.newWord(w)
	}
	for _, a := range args {
		e.cdata = e.cdata || a.ContainsCData()
	}
	it.assignID(e)
	it.apps[k] = e
	return e
}
