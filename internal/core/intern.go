package core

import (
	"math/bits"
	"sync"

	"sigrec/internal/evm"
)

// interner hash-conses Expr nodes for one TASE exploration: structurally
// identical expressions are canonicalized to a single immutable node and
// assigned a small integer id. Because every canonical node's children are
// themselves canonical, the structural hash and the equality check are both
// shallow — scalar fields plus child ids and pointers — so lookups never
// recurse and pointer identity is structural identity everywhere
// downstream (event dedup, common-subexpression reuse, inference).
//
// An interner is confined to a single goroutine and lives for one trace. It
// also holds the trace's event buffer and event dedup set, so everything a
// trace can hand back for reuse hangs off this one struct.
//
// What is pooled, and what is not:
//   - The struct itself (internerPool): smallConst makes it 2 KiB, and every
//     recovery builds one for the dispatcher walk and one per selector.
//   - The slab chunks behind the Expr nodes, their Words and Args, and the
//     exploration's guard and copy-region chains (one chunkPool each):
//     fixed-size arrays, whatever the trace's size.
//   - The event buffer and the dedup set ride along in the pooled struct, up
//     to maxPooledEvents; a larger trace's buffer and set are dropped, so an
//     adversarial trace cannot pin its event slice in the pool. reset
//     empties the set by visiting the trace's own events (clearSeen).
//   - The node table rides along too, up to maxPooledTable slots. recycle
//     empties it by visiting the trace's own nodes (clearTable), so a small
//     trace after a large one pays for its own nodes, not for the table's
//     high-water size; a table past the cap is dropped.
//
// Only the recovery pipeline recycles, and only once nothing can reach the
// trace (see recycle). Traces handed to callers (TraceFunction) keep their
// interner, less its node table and dedup set (see release), so a caller
// may hold their events and nodes for as long as it likes.
type interner struct {
	// table is the open-addressed node table (linear probing, power-of-two
	// length, nil slots empty). It holds the KindApp, KindCData and
	// KindCSize nodes and the constants too large for smallConst. It
	// stores no keys: a probe compares a candidate's own fields, and a
	// resize rehashes each node from them (nodeHash). used counts the
	// occupied slots; the table doubles past 3/4 load.
	table []*Expr
	used  int

	nextID uint32
	// envSeq numbers the environment nodes of this trace.
	envSeq int
	// hits/misses meter the hash-consing effectiveness; the engine copies
	// them onto its tase when exploration ends (the interner may be
	// recycled before the counters are read).
	hits, misses uint64

	// events and seen are the trace's event buffer and dedup set (see
	// record). seen is open-addressed like table, over event indexes:
	// slot value i+1 stands for events[i], 0 is empty, and a probe
	// compares the candidate event's own key (eventKey). It holds one
	// entry per event and doubles past 3/4 load. Both survive recycle up
	// to maxPooledEvents, so the next trace appends into the same memory.
	events []Event
	seen   []int32

	// Slabs back the canonical nodes: every install carves its Expr, its
	// concrete Word, and its Args array out of chunked arrays instead of
	// individual heap objects. Nodes are immutable and share the trace's
	// lifetime (nothing outlives the recovery holding an *Expr), so whole
	// chunks die together and the per-node allocation disappears; the
	// recovery pipeline goes further and recycles the chunks into the next
	// trace (see recycle). The exploration carves its paths' guard and
	// copy-region chains from the same kind of slab.
	exprs  slab[Expr]
	words  slab[evm.Word]
	args   slab[*Expr]
	guards slab[guardNode]
	copies slab[copyNode]

	// smallConst holds the canonical nodes for constants 0..255 instead
	// of the table — stack offsets, head offsets, and mask widths
	// dominate constW traffic, and a direct index avoids hashing.
	smallConst [numSmallConst]*Expr
}

// appTag packs the discriminating scalars of an application-shaped node.
// Pure EVM opcodes pop at most three operands (ADDMOD and MULMOD), which
// bounds the arity.
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
	// maxPooledTable caps the node table a recycled interner keeps: 1,024
	// slots are 8 KiB, the largest table of the golden corpora.
	maxPooledTable = 1024
	// numSmallConst is how many small constants smallConst indexes.
	numSmallConst = 256
	// minNodeTable is the node table's first size in slots (256 B): it
	// holds the table nodes of most one-function traces without a resize.
	// The dedup set starts at the same size (128 B).
	minNodeTable = 32
	// hashMul is the 64-bit golden-ratio multiplier; the table indexes by
	// the top bits of the product, which depend on every input bit.
	hashMul = 0x9e3779b97f4a7c15
)

// chunk is one pooled slab array, linked through next so an interner can
// track the chunks it holds without allocating.
type chunk[T any] struct {
	items [internSlabLen]T
	next  *chunk[T]
}

// slab carves values out of pooled chunks. free is the uncarved tail of the
// newest chunk; the chunks are chained newest first.
type slab[T any] struct {
	free   []T
	chunks *chunk[T]
}

// The pools recycle interners and slab chunks from one trace to the next.
// A recovery's heap is otherwise almost all garbage, so reusing them sets
// how often the collector runs. Every chunk but a word chunk goes back
// zeroed (they hold pointers); word chunks need no clearing, newWord
// overwrites each slot.
var (
	internerPool   = sync.Pool{New: func() any { return new(interner) }}
	exprChunkPool  = chunkPool[Expr]()
	wordChunkPool  = chunkPool[evm.Word]()
	argChunkPool   = chunkPool[*Expr]()
	guardChunkPool = chunkPool[guardNode]()
	copyChunkPool  = chunkPool[copyNode]()
)

// chunkPool returns a pool of chunk[T]s.
func chunkPool[T any]() *sync.Pool {
	return &sync.Pool{New: func() any { return new(chunk[T]) }}
}

// take carves n consecutive values (n <= internSlabLen), starting a chunk
// from pool when the newest one has too few left.
func (s *slab[T]) take(pool *sync.Pool, n int) []T {
	if len(s.free) < n {
		s.grow(pool)
	}
	out := s.free[:n:n]
	s.free = s.free[n:]
	return out
}

// grow starts a new newest chunk, kept out of take so take inlines.
func (s *slab[T]) grow(pool *sync.Pool) {
	c := pool.Get().(*chunk[T])
	c.next, s.chunks = s.chunks, c
	s.free = c.items[:]
}

// carved returns the prefix of c that take handed out: all of an older
// chunk (an ownArgs chunk may end in a few never-carved, still zero slots),
// and the newest chunk up to its free tail.
func (s *slab[T]) carved(c *chunk[T]) []T {
	if c == s.chunks {
		return c.items[:internSlabLen-len(s.free)]
	}
	return c.items[:]
}

// recycle hands every chunk back to pool and empties the slab. With zero
// set it clears the carved prefixes first, so the pool holds only zeroed
// chunks without re-zeroing what a trace never touched.
func (s *slab[T]) recycle(pool *sync.Pool, zero bool) {
	for c := s.chunks; c != nil; {
		next := c.next
		if zero {
			clear(s.carved(c))
		}
		c.next = nil
		pool.Put(c)
		c = next
	}
	*s = slab[T]{}
}

// newExpr carves one zeroed node from the slab.
func (it *interner) newExpr() *Expr {
	return &it.exprs.take(exprChunkPool, 1)[0]
}

// newWord stores w in the word slab and returns its address.
func (it *interner) newWord(w evm.Word) *evm.Word {
	p := &it.words.take(wordChunkPool, 1)[0]
	*p = w
	return p
}

// ownArgs copies the operands into slab-backed storage (callers pass
// scratch arrays that must not be aliased by the canonical node).
func (it *interner) ownArgs(args []*Expr) []*Expr {
	if len(args) == 0 {
		return nil
	}
	owned := it.args.take(argChunkPool, len(args))
	copy(owned, args)
	return owned
}

// pushGuard returns the guard chain parent extended by g. The chain is
// persistent: parent is shared, never copied, by every path forked under it.
func (it *interner) pushGuard(parent *guardNode, g Guard) *guardNode {
	n := &it.guards.take(guardChunkPool, 1)[0]
	n.Guard, n.parent, n.depth = g, parent, 1
	if parent != nil {
		n.depth += parent.depth
	}
	return n
}

// pushCopy returns the copy-region chain next with one newer region in front.
func (it *interner) pushCopy(next *copyNode, dst uint64, src, ln *Expr) *copyNode {
	n := &it.copies.take(copyChunkPool, 1)[0]
	*n = copyNode{dst: dst, src: src, ln: ln, next: next}
	return n
}

// newInterner takes an interner from the pool. Its node table and dedup
// set are the pooled ones, emptied, or are allocated on first use.
func newInterner() *interner {
	return internerPool.Get().(*interner)
}

// release drops the node table and the dedup set of a trace that will not
// be recycled (TraceFunction hands it to the caller), so a held trace does
// not hold its lookup structures. The canonical nodes themselves live on
// in the recorded events.
func (it *interner) release() {
	it.table, it.used, it.seen = nil, 0, nil
}

// record deduplicates and stores an event.
func (it *interner) record(ev Event) {
	if it.seen == nil {
		it.seen = make([]int32, minNodeTable)
	}
	key := eventKey(&ev)
	mask := len(it.seen) - 1
	i := homeSlot(eventHash(key), mask)
	for ; it.seen[i] != 0; i = (i + 1) & mask {
		if eventKey(&it.events[it.seen[i]-1]) == key {
			return
		}
	}
	it.events = append(it.events, ev)
	it.seen[i] = int32(len(it.events))
	if len(it.events)*4 > len(it.seen)*3 {
		it.growSeen()
	}
}

// growSeen doubles the dedup set and re-adds the events in order, so every
// event's probe path crosses only events older than it (see clearSeen).
func (it *interner) growSeen() {
	it.seen = make([]int32, 2*len(it.seen))
	mask := len(it.seen) - 1
	for k := range it.events {
		i := homeSlot(eventHash(eventKey(&it.events[k])), mask)
		for it.seen[i] != 0 {
			i = (i + 1) & mask
		}
		it.seen[i] = int32(k + 1)
	}
}

// clearSeen empties the dedup set by visiting the trace's events, newest
// first, instead of the set's slots: each is found from its home slot by
// scanning the path it was added along, which holds only older events
// still in place (the scan gives up after one lap on an event that never
// went through record).
func (it *interner) clearSeen() {
	if len(it.seen) == 0 {
		return
	}
	mask, left := len(it.seen)-1, len(it.events)
	for k := len(it.events) - 1; k >= 0; k-- {
		want := int32(k + 1)
		j := homeSlot(eventHash(eventKey(&it.events[k])), mask)
		for n := 0; n < mask && it.seen[j] != want; n++ {
			j = (j + 1) & mask
		}
		if it.seen[j] == want {
			it.seen[j] = 0
			left--
		}
	}
	if left != 0 { // not reached from the trace's events: never pool it full
		clear(it.seen)
	}
}

// clearTable empties the node table for the next trace, or drops it past
// maxPooledTable, and nils the smallConst entries. It visits the nodes this
// trace installed, not the table's slots: each table node is found from its
// home slot by scanning past the slots already cleared (a node installed
// after a release is in no table, and the scan gives up on it after one
// lap).
func (it *interner) clearTable() {
	if len(it.table) > maxPooledTable {
		it.release()
	}
	for c := it.exprs.chunks; c != nil; c = c.next {
		for i := range it.exprs.carved(c) {
			n := &c.items[i]
			if n.Kind == KindConst {
				if v, fits := n.Conc.Uint64(); fits && v < numSmallConst {
					it.smallConst[v] = nil
					continue
				}
			}
			if it.used == 0 || n.Kind == KindEnv {
				continue
			}
			j, mask := it.home(nodeHash(n))
			for k := 0; k < mask && it.table[j] != n; k++ {
				j = (j + 1) & mask
			}
			if it.table[j] == n {
				it.table[j] = nil
				it.used--
			}
		}
	}
	if it.used != 0 { // not reached from the trace's nodes: never pool it full
		clear(it.table)
		it.used = 0
	}
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
	// The table and the dedup set are emptied by reading the trace's nodes,
	// so before the slabs holding them are zeroed.
	it.clearTable()
	it.reset()
	it.exprs.recycle(exprChunkPool, true)
	it.words.recycle(wordChunkPool, false)
	it.args.recycle(argChunkPool, true)
	it.guards.recycle(guardChunkPool, true)
	it.copies.recycle(copyChunkPool, true)
	internerPool.Put(it)
}

// reset readies the interner for its next trace, keeping the event buffer
// and dedup set (emptied) only when the trace stayed within
// maxPooledEvents, and the node table emptied by clearTable. It assigns
// field by field: clearTable has already nilled smallConst and recycle
// empties the slabs, and zeroing the whole 2 KiB struct would store
// through the write barrier again.
func (it *interner) reset() {
	if cap(it.events) > maxPooledEvents { // seen is sized to the events
		it.events, it.seen = nil, nil
	} else {
		it.clearSeen()   // reads the events' keys, so before they are cleared
		clear(it.events) // drop node references so the pool pins no trace
		it.events = it.events[:0]
	}
	it.nextID, it.envSeq, it.hits, it.misses = 0, 0, 0, 0
}

// appHash hashes an application-shaped node by its tag and its operands'
// ids (operands are canonical, so their ids are their identity).
func appHash(tag uint32, args []*Expr) uint64 {
	h := uint64(tag)
	for _, a := range args {
		h = h*hashMul + uint64(a.id)
	}
	return h * hashMul
}

// wordHash hashes a constant by its limbs.
func wordHash(w evm.Word) uint64 {
	var h uint64
	for _, l := range w.Limbs() {
		h = h*hashMul + l
	}
	return h * hashMul
}

// eventHash hashes an event's dedup key.
func eventHash(k eventID) uint64 {
	h := uint64(k.kind)<<8 | uint64(k.op)
	for _, x := range [...]uint64{k.pc, k.dst, uint64(k.a0), uint64(k.a1), uint64(k.a2)} {
		h = h*hashMul + x
	}
	return h * hashMul
}

// nodeHash recomputes the hash a table node was installed under.
func nodeHash(e *Expr) uint64 {
	if e.Kind == KindConst {
		return wordHash(*e.Conc)
	}
	return appHash(appTag(e.Kind, e.Op, len(e.Args)), e.Args)
}

// home returns h's home slot, the top bits of h, and the table's index
// mask, allocating the table on the first probe. Probes step linearly
// from the home slot; the table is never full, so every probe ends at a
// match or an empty slot.
func (it *interner) home(h uint64) (int, int) {
	if it.table == nil {
		it.table = make([]*Expr, minNodeTable)
	}
	mask := len(it.table) - 1
	return homeSlot(h, mask), mask
}

// homeSlot returns h's home slot in a power-of-two table with index mask
// mask: the top bits of h.
func homeSlot(h uint64, mask int) int {
	return int(h >> (64 - bits.Len(uint(mask))))
}

// install puts a new node into the empty slot i its lookup ended on, and
// doubles the table past 3/4 load.
func (it *interner) install(i int, e *Expr) {
	it.table[i] = e
	it.used++
	if it.used*4 <= len(it.table)*3 {
		return
	}
	old := it.table
	it.table = make([]*Expr, 2*len(old))
	for _, n := range old {
		if n == nil {
			continue
		}
		j, mask := it.home(nodeHash(n))
		for it.table[j] != nil {
			j = (j + 1) & mask
		}
		it.table[j] = n
	}
}

// lookupApp probes for the canonical node of kind with op over args,
// returning its slot and the node, or the empty slot to install it in.
func (it *interner) lookupApp(kind ExprKind, op evm.Op, args []*Expr) (int, *Expr) {
	i, mask := it.home(appHash(appTag(kind, op, len(args)), args))
	for ; ; i = (i + 1) & mask {
		e := it.table[i]
		if e == nil || e.sameApp(kind, op, args) {
			return i, e
		}
	}
}

// sameApp reports whether e is the node of kind with op over args.
func (e *Expr) sameApp(kind ExprKind, op evm.Op, args []*Expr) bool {
	if e.Kind != kind || e.Op != op || len(e.Args) != len(args) {
		return false
	}
	for j, a := range args {
		if e.Args[j] != a {
			return false
		}
	}
	return true
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
	v, fits := w.Uint64()
	if fits && v < numSmallConst {
		if e := it.smallConst[v]; e != nil {
			it.hits++
			return e
		}
		e := it.newConst(w)
		it.smallConst[v] = e
		return e
	}
	i, mask := it.home(wordHash(w))
	for ; it.table[i] != nil; i = (i + 1) & mask {
		if e := it.table[i]; e.Kind == KindConst && e.Conc.Eq(w) {
			it.hits++
			return e
		}
	}
	e := it.newConst(w)
	it.install(i, e)
	return e
}

// newConst builds and numbers a constant node.
func (it *interner) newConst(w evm.Word) *Expr {
	e := it.newExpr()
	e.Kind = KindConst
	e.Conc = it.newWord(w)
	return it.assignID(e)
}

// constUint is constW for small values.
func (it *interner) constUint(v uint64) *Expr { return it.constW(evm.WordFromUint64(v)) }

// cdata returns the canonical CALLDATALOAD(off) node; off must be canonical.
func (it *interner) cdata(off *Expr) *Expr {
	args := [1]*Expr{off}
	i, e := it.lookupApp(KindCData, 0, args[:])
	if e != nil {
		it.hits++
		return e
	}
	e = it.newExpr()
	e.Kind = KindCData
	e.Args = it.ownArgs(args[:])
	e.cdata = true
	it.assignID(e)
	it.install(i, e)
	return e
}

// csize returns the canonical CALLDATASIZE node.
func (it *interner) csize() *Expr {
	i, e := it.lookupApp(KindCSize, 0, nil)
	if e != nil {
		it.hits++
		return e
	}
	e = it.newExpr()
	e.Kind = KindCSize
	it.assignID(e)
	it.install(i, e)
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

// app returns the canonical Op(args...) node, folding concretely on first
// construction; args must be canonical and at most three (every pure EVM
// opcode satisfies this). The args slice is only retained on a miss.
func (it *interner) app(op evm.Op, args ...*Expr) *Expr {
	return it.appN(op, args)
}

// appN is app without the variadic copy, for callers that already hold a
// slice (or a sub-slice of a scratch array — a slab copy is made on miss
// so the canonical node never aliases caller scratch space). A mask shape
// is rewritten in args first (see maskForm).
func (it *interner) appN(op evm.Op, args []*Expr) *Expr {
	op = it.maskForm(op, args)
	i, e := it.lookupApp(KindApp, op, args)
	if e != nil {
		it.hits++
		return e
	}
	e = it.newExpr()
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
	it.install(i, e)
	return e
}

// maskForm rewrites the shapes that keep a constant mask of a symbolic x
// into AND(x, mask), writing the operands into args, and returns the op to
// intern: MOD(x, 2^k) with 1 <= k <= 255 keeps the low k bits, and with
// 0 < s < 256 SHR(s, SHL(s, x)) keeps the low 256-s bits and
// SHL(s, SHR(s, x)) the high 256-s bits. Each mask is then one node, read
// by one rule: MOD(x, 256) is AND(x, 255).
func (it *interner) maskForm(op evm.Op, args []*Expr) evm.Op {
	var x *Expr
	var mask evm.Word
	switch op {
	case evm.MOD:
		if c := args[1].Conc; c != nil && c.Cmp(evm.OneWord) > 0 && c.And(c.Sub(evm.OneWord)).IsZero() {
			x, mask = args[0], c.Sub(evm.OneWord)
		}
	case evm.SHR, evm.SHL:
		undo, keep := evm.SHL, evm.LowMask
		if op == evm.SHL {
			undo, keep = evm.SHR, evm.HighMask
		}
		n, ok := args[0].ConstUint()
		if in := args[1]; ok && n > 0 && n < 256 && in.Kind == KindApp && in.Op == undo && in.Args[0] == args[0] {
			x, mask = in.Args[1], keep(uint(256-n))
		}
	}
	if x == nil || x.Conc != nil {
		return op // not a mask, or a concrete x that folds
	}
	args[0], args[1] = x, it.constW(mask)
	return evm.AND
}
