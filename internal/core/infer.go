package core

import (
	"cmp"
	"slices"
	"sync"
	"unsafe"

	"sigrec/internal/abi"
	"sigrec/internal/evm"
)

// Language labels the detected source compiler.
type Language int

// Detected languages.
const (
	LangSolidity Language = iota + 1
	LangVyper
)

// String implements fmt.Stringer.
func (l Language) String() string {
	if l == LangVyper {
		return "vyper"
	}
	return "solidity"
}

// inference runs the coarse and fine type inference (TASE steps 1, 2, 4)
// over one function's trace. It keys everything by node identity: within a
// trace the interner makes structurally equal values one node, so a
// pointer compare is a structural compare, and a node's dense id indexes
// per-node state.
//
// An inference is the pooled scratch of one Infer call (inferencePool):
// every buffer below keeps its memory from one call to the next, and only
// what Inferred returns is allocated per call. release empties the
// buffers by clearing the prefix the trace used, so a small trace after a
// large one pays for its own size, not for the buffers' high-water mark.
type inference struct {
	events []Event
	stats  RuleStats
	lang   Language

	// split backs the views of the events by kind: loads, then copies,
	// then the rest, each part capped so appends cannot spill into the
	// next.
	split []*Event
	cdls  []*Event // CALLDATALOAD events
	cdcs  []*Event // CALLDATACOPY events
	ops   []*Event // tainted instruction events

	// trail holds the rules applied so far, one run per parameter (the
	// per-parameter explanation); mark is where the current parameter's
	// run starts.
	trail []RuleID
	mark  int

	// nodes holds per-node state for the trace's interned nodes, indexed by
	// id (the interner numbers a trace's nodes from 1). A node without an
	// id of this trace (one built outside an interner has id 0) has no
	// record: it is described afresh on every call and found by pointer
	// scans instead, so it never shares a slot with another node.
	nodes []nodeInfo
	// descs is descOf's memo; nodeInfo.desc indexes it.
	descs []memoDesc
	// terms is the arena the descriptors' term lists are carved from.
	// Descriptors are immutable, so a carved list is never written again.
	terms []term
	// loadsIndexed and boundsMarked record that nodeInfo.load and
	// nodeInfo.bound have been filled; otherBounds holds the bounds
	// without a record.
	loadsIndexed, boundsMarked bool
	otherBounds                []*Expr

	// lin is the scratch term buffer behind linearize. It is as long as
	// the longest linearization of the call, so release clears all of it.
	lin []LinearTerm

	// claims are the parameters recovered so far, in stage order (see
	// classify).
	claims []claim
	// heads and uses are derefedHeadSlots' buffers, reads the static-array
	// stages' grouping of constant reads by pc, items classifySequence's,
	// and dims guardDims' buffer.
	heads []headSlot
	uses  []*Expr
	reads []constRead
	items []itemGroup
	dims  []uint64
	// views holds classifyBody's view of the body at each nesting depth.
	views [maxNestingDepth + 1]bodyView
}

// inferencePool recycles inference scratch from one Infer call to the next.
var inferencePool = sync.Pool{New: func() any { return new(inference) }}

// maxPooledInferBytes caps the scratch an inference may hold to go back to
// inferencePool: about three times the largest scratch over E1 seed 1 and
// dataset 2 seeds 1-3 (22 KB). The scratch of a larger trace is left to
// the collector, like an over-cap event buffer, so an adversarial trace
// cannot pin it in the pool.
const maxPooledInferBytes = 64 << 10

// nodeInfo is the inference state of one interned node.
type nodeInfo struct {
	// desc is 1 + the index in descs of the node's memoized descOf; 0 until
	// it is described.
	desc int32
	// load is 1 + the index in cdls of the first load whose value is the
	// node; 0 when none.
	load int32
	// bound: the node is compared as a loop bound or range limit, or is a
	// top-level linear term of such a value. linearized: its own terms
	// have been marked.
	bound, linearized bool
}

// info returns the node's record, or nil when it has no id of this trace.
func (inf *inference) info(e *Expr) *nodeInfo {
	if e.id == 0 || int(e.id) >= len(inf.nodes) {
		return nil
	}
	return &inf.nodes[e.id]
}

// linearize is Linearize into the inference's scratch buffer: the terms
// are valid only until the next call, which no caller outlives.
func (inf *inference) linearize(e *Expr) Linear {
	l := linearizeInto(e, inf.lin)
	inf.lin = l.Terms
	return l
}

// ruleRun is one parameter's rules, trail[lo:hi].
type ruleRun struct{ lo, hi int }

// hit records a rule application against the global stats, the pipeline's
// per-rule fired counters (sigrec_rule_fired_total{rule=...}), and the
// current parameter's explanation.
func (inf *inference) hit(r RuleID) {
	inf.stats.hit(r)
	mRuleFired[r].Inc()
	inf.trail = append(inf.trail, r)
}

// beginParam starts a fresh explanation, dropping any rule applied since
// the last takeRules.
func (inf *inference) beginParam() {
	inf.trail = inf.trail[:inf.mark]
}

// takeRules ends the current explanation and returns its run of the trail.
func (inf *inference) takeRules() ruleRun {
	r := ruleRun{inf.mark, len(inf.trail)}
	inf.mark = len(inf.trail)
	return r
}

// bodyDesc reduces a Linear to a uint64 constant plus atoms with uint64
// coefficients. describe fails for exotic forms (huge constants or
// coefficients), which the classifier treats as opaque.
type bodyDesc struct {
	c     uint64
	terms []term // distinct atoms
}

// term is one atom of a bodyDesc and its coefficient (never 0).
type term struct {
	atom  *Expr
	coeff uint64
}

func (inf *inference) descOf(e *Expr) (bodyDesc, bool) {
	// Classifiers re-describe the same addresses for every parameter, and
	// descriptors are immutable once built, so sharing them is safe.
	n := inf.info(e)
	if n != nil && n.desc != 0 {
		m := inf.descs[n.desc-1]
		return m.d, m.ok
	}
	d, ok := inf.describe(e)
	if n != nil {
		inf.descs = append(inf.descs, memoDesc{d: d, ok: ok})
		n.desc = int32(len(inf.descs))
	}
	return d, ok
}

// memoDesc is a cached descOf outcome (negative results are cached too).
type memoDesc struct {
	d  bodyDesc
	ok bool
}

// describe is descOf without the memo. Linearize already merged repeated
// atoms, so the terms are distinct.
func (inf *inference) describe(e *Expr) (bodyDesc, bool) {
	lin := inf.linearize(e)
	c, ok := lin.Const.Uint64()
	if !ok {
		return bodyDesc{}, false
	}
	start := len(inf.terms)
	for _, t := range lin.Terms {
		coeff, ok := t.Coeff.Uint64()
		if !ok {
			inf.terms = inf.terms[:start]
			return bodyDesc{}, false
		}
		inf.terms = append(inf.terms, term{atom: t.Atom, coeff: coeff})
	}
	return bodyDesc{c: c, terms: inf.carve(start)}, true
}

// carve returns the arena's terms from start on as an immutable list, or
// nil when there are none.
func (inf *inference) carve(start int) []term {
	if len(inf.terms) == start {
		return nil
	}
	return inf.terms[start:len(inf.terms):len(inf.terms)]
}

// withTerm returns terms plus atom at coefficient 1.
func (inf *inference) withTerm(terms []term, atom *Expr) []term {
	start := len(inf.terms)
	for _, t := range terms {
		if t.atom != atom {
			inf.terms = append(inf.terms, t)
		}
	}
	inf.terms = append(inf.terms, term{atom: atom, coeff: 1})
	return inf.carve(start)
}

// coeffOf returns atom's coefficient in terms, or 0 when it is absent.
func coeffOf(terms []term, atom *Expr) uint64 {
	for _, t := range terms {
		if t.atom == atom {
			return t.coeff
		}
	}
	return 0
}

// coversTerms reports whether d includes all of body's terms with equal
// coefficients.
func coversTerms(d, body bodyDesc) bool {
	for _, t := range body.terms {
		if coeffOf(d.terms, t.atom) != t.coeff {
			return false
		}
	}
	return true
}

// sameTerms reports whether two descriptors have identical symbolic parts.
func sameTerms(a, b bodyDesc) bool {
	return len(a.terms) == len(b.terms) && coversTerms(a, b)
}

// extraTerm returns the coefficient-1 atom of a that b lacks, when there
// is exactly one such atom.
func extraTerm(a, b bodyDesc) (*Expr, bool) {
	var extra *Expr
	n := 0
	for _, t := range a.terms {
		if t.coeff == 1 && coeffOf(b.terms, t.atom) == 0 {
			extra = t.atom
			n++
		}
	}
	return extra, n == 1
}

// Inferred is the full inference output for one function.
type Inferred struct {
	// Types is the recovered parameter list, call-data order.
	Types []abi.Type
	// ParamRules explains each parameter: the rules applied to classify
	// it, in application order (parallel to Types).
	ParamRules [][]RuleID
	// Language is the detected source compiler.
	Language Language
	// Stats aggregates rule usage for the function.
	Stats RuleStats
}

// InferSignature runs type inference over a trace, returning the recovered
// parameter list, the detected language, and the rule-usage statistics.
func InferSignature(tr Trace) ([]abi.Type, Language, RuleStats) {
	d := Infer(tr)
	return d.Types, d.Language, d.Stats
}

// Infer runs type inference with per-parameter rule explanations. Its
// scratch comes from inferencePool and goes back before it returns;
// nothing it returns points into the scratch.
func Infer(tr Trace) Inferred {
	inf := inferencePool.Get().(*inference)
	out := inf.infer(tr)
	inf.release()
	return out
}

// infer runs the inference over tr in an empty scratch.
func (inf *inference) infer(tr Trace) Inferred {
	inf.load(tr)
	inf.detectLanguage()
	langRules := inf.takeRules() // R20, when it fired
	inf.classify()
	return inf.output(langRules)
}

// load readies a pooled, empty scratch for tr: the id-indexed node records
// and the views of the events by kind.
func (inf *inference) load(tr Trace) {
	inf.events, inf.lang = tr.Events, LangSolidity
	if tr.it != nil && len(tr.Events) > 0 {
		// A pooled buffer is zero past its length, so no clearing here.
		inf.nodes = slices.Grow(inf.nodes, int(tr.it.nextID)+1)[:tr.it.nextID+1]
	}
	var nCDL, nCDC int
	for _, ev := range tr.Events {
		switch ev.Kind {
		case EvCDL:
			nCDL++
		case EvCDC:
			nCDC++
		}
	}
	inf.split = slices.Grow(inf.split, len(tr.Events))[:len(tr.Events)]
	inf.cdls = inf.split[:0:nCDL]
	inf.cdcs = inf.split[nCDL : nCDL : nCDL+nCDC]
	inf.ops = inf.split[nCDL+nCDC : nCDL+nCDC]
	for i := range tr.Events {
		switch ev := &tr.Events[i]; ev.Kind {
		case EvCDL:
			inf.cdls = append(inf.cdls, ev)
		case EvCDC:
			inf.cdcs = append(inf.cdcs, ev)
		case EvOp:
			inf.ops = append(inf.ops, ev)
		}
	}
}

// output builds the result in fresh memory, in head-offset order: the
// types, and the rule trails carved from one exact-size []RuleID, the
// language rules leading the first parameter's trail so the explanation
// reads root-first, as in the decision tree.
func (inf *inference) output(langRules ruleRun) Inferred {
	claims := inf.claims
	slices.SortFunc(claims, func(a, b claim) int { return cmp.Compare(a.off, b.off) })
	out := Inferred{
		Types:      make([]abi.Type, len(claims)),
		ParamRules: make([][]RuleID, len(claims)),
		Language:   inf.lang,
		Stats:      inf.stats,
	}
	if len(claims) == 0 {
		return out
	}
	n := langRules.hi - langRules.lo
	for _, cl := range claims {
		n += cl.rules.hi - cl.rules.lo
	}
	trails := make([]RuleID, 0, n)
	for i, cl := range claims {
		out.Types[i] = cl.typ
		start := len(trails)
		if i == 0 {
			trails = append(trails, inf.trail[langRules.lo:langRules.hi]...)
		}
		trails = append(trails, inf.trail[cl.rules.lo:cl.rules.hi]...)
		if len(trails) > start {
			out.ParamRules[i] = trails[start:len(trails):len(trails)]
		}
	}
	return out
}

// bytes reports the memory the scratch's buffers hold.
func (inf *inference) bytes() int {
	n := sliceBytes(inf.split) + sliceBytes(inf.trail) + sliceBytes(inf.nodes) +
		sliceBytes(inf.descs) + sliceBytes(inf.terms) + sliceBytes(inf.otherBounds) +
		sliceBytes(inf.lin) + sliceBytes(inf.claims) + sliceBytes(inf.heads) +
		sliceBytes(inf.uses) + sliceBytes(inf.reads) + sliceBytes(inf.items) + sliceBytes(inf.dims)
	for i := range inf.views {
		v := &inf.views[i]
		n += sliceBytes(v.reads) + sliceBytes(v.children) + sliceBytes(v.fields)
	}
	return n
}

// sliceBytes is the memory behind s.
func sliceBytes[T any](s []T) int {
	var zero T
	return cap(s) * int(unsafe.Sizeof(zero))
}

// release returns the scratch to inferencePool, emptied, unless it grew
// past maxPooledInferBytes, and reports whether it did. Each buffer is
// cleared over the prefix this call used (every buffer is zero past its
// length), so the pool pins no trace and no output, and a pooled scratch
// is all zero.
func (inf *inference) release() bool {
	if inf.bytes() > maxPooledInferBytes {
		return false
	}
	clear(inf.split)
	clear(inf.nodes)
	clear(inf.descs)
	clear(inf.terms)
	clear(inf.otherBounds)
	clear(inf.lin[:cap(inf.lin)])
	clear(inf.claims)
	clear(inf.heads)
	clear(inf.uses)
	clear(inf.reads)
	for i := range inf.views {
		inf.views[i].reset()
	}
	*inf = inference{
		split: inf.split[:0], trail: inf.trail[:0], nodes: inf.nodes[:0],
		descs: inf.descs[:0], terms: inf.terms[:0], otherBounds: inf.otherBounds[:0],
		lin: inf.lin[:0], claims: inf.claims[:0], heads: inf.heads[:0],
		uses: inf.uses[:0], reads: inf.reads[:0], items: inf.items[:0], dims: inf.dims[:0],
		views: inf.views,
	}
	inferencePool.Put(inf)
	return true
}

// detectLanguage applies rule R20: Vyper bytecode validates basic values
// with comparisons against type-range constants instead of masks.
func (inf *inference) detectLanguage() {
	for _, ev := range inf.ops {
		var bound *Expr
		switch ev.Op {
		case evm.LT, evm.GT, evm.SLT, evm.SGT:
			bound = ev.Args[1]
		default:
			continue
		}
		if bound.Conc == nil || ev.Args[0].Conc != nil {
			continue
		}
		b := *bound.Conc
		if b.Eq(boundBool) || b.Eq(boundAddress) || b.Eq(int128Min) ||
			b.Eq(int128Max) || b.Eq(decimalMin) || b.Eq(decimalMax) {
			inf.lang = LangVyper
			inf.hit(R20)
			return
		}
	}
	// Bounded byte-array copies are the other Vyper-only signature.
	for _, ev := range inf.cdcs {
		if d, ok := inf.descOf(ev.Src); ok && d.c == 4 && len(d.terms) == 1 {
			if _, isConst := ev.Len.ConstUint(); isConst {
				inf.lang = LangVyper
				inf.hit(R20)
				return
			}
		}
	}
}

// claim is one recovered parameter occupying head bytes [off, off+size).
type claim struct {
	off   uint64
	size  uint64
	typ   abi.Type
	rules ruleRun
}

// claimedBy reports whether head offset off is already absorbed by a claim:
// it lies inside one, 32-byte aligned to the claim's start. Claims are few
// (one per recovered parameter) while a static array can span millions of
// slots, so the claims stay intervals instead of being expanded per slot.
func claimedBy(claims []claim, off uint64) bool {
	for _, cl := range claims {
		if off >= cl.off && off-cl.off < cl.size && (off-cl.off)%32 == 0 {
			return true
		}
	}
	return false
}

// classify performs coarse inference (head layout) and then fine inference
// per parameter, appending the claims to inf.claims. Each stage sees the
// claims of the stages before it, not its own.
func (inf *inference) classify() {
	// 1. Dynamic parameters: head slots whose loaded value is dereferenced.
	for _, h := range inf.derefedHeadSlots() {
		inf.beginParam()
		typ := inf.classifyDynamic(h.atom)
		inf.claims = append(inf.claims, claim{off: h.off, size: 32, typ: typ, rules: inf.takeRules()})
	}

	// 2. Static arrays copied in public mode (constant-source CALLDATACOPY).
	inf.staticPublicArrays()

	// 3. Static arrays read in external mode (pc-grouped constant loads
	//    under constant bound checks).
	inf.staticExternalArrays()

	// 4. Remaining constant head reads are basic values.
	inf.basicClaims()
}

// headSlot is a constant head offset and the trace's node for the value
// loaded from it, CALLDATALOAD(off).
type headSlot struct {
	off  uint64
	atom *Expr
}

// headOffset reports the constant offset of a value loaded from one.
func headOffset(val *Expr) (uint64, bool) {
	if val.Kind != KindCData || val.Args[0].Kind != KindConst {
		return 0, false
	}
	return val.Args[0].ConstUint()
}

// derefedHeadSlots finds constant head offsets whose loaded value,
// CALLDATALOAD(off), is a term of the base of further call-data reads or
// copies (offset fields). The slots are valid until the next call.
func (inf *inference) derefedHeadSlots() []headSlot {
	uses := inf.uses[:0]
	note := func(e *Expr) {
		if d, ok := inf.descOf(e); ok {
			for _, t := range d.terms {
				if !slices.Contains(uses, t.atom) {
					uses = append(uses, t.atom)
				}
			}
		}
	}
	for _, ev := range inf.cdls {
		if !ev.Off.IsConst() {
			note(ev.Off)
		}
	}
	for _, ev := range inf.cdcs {
		note(ev.Src)
	}
	inf.uses = uses
	out := inf.heads[:0]
	for _, ev := range inf.cdls {
		off, ok := headOffset(ev.Val)
		if !ok || off < 4 || !slices.Contains(uses, ev.Val) ||
			slices.ContainsFunc(out, func(h headSlot) bool { return h.off == off }) {
			continue
		}
		out = append(out, headSlot{off: off, atom: ev.Val})
	}
	slices.SortFunc(out, func(a, b headSlot) int { return cmp.Compare(a.off, b.off) })
	inf.heads = out
	return out
}

// loopBound extracts a loop-guard bound from a guard condition of the form
// LT(i, bound) or ISZERO(LT(i, bound)) with a concrete counter i.
func loopBound(g Guard) (*Expr, bool) {
	cond := g.Cond
	if cond.Kind == KindApp && cond.Op == evm.ISZERO {
		cond = cond.Args[0]
	}
	if cond.Kind != KindApp || cond.Op != evm.LT {
		return nil, false
	}
	if cond.Args[0].Conc == nil {
		return nil, false // counter must be concrete; value range checks are not loops
	}
	return cond.Args[1], true
}

// guardDims returns the static dimensions of the loops controlling an
// event, outermost first, in inf.dims (valid until the next call): each
// loop guard with a constant bound yields one. Of several guards at one
// JUMPI pc, the outermost one counts.
func (inf *inference) guardDims(ev *Event) []uint64 {
	type loopGuard struct {
		pc    uint64
		bound *Expr
	}
	// The chain runs innermost first: collect the loop guards, then read
	// them back outermost first. The buffer holds Fig. 18's 20 dimensions.
	var buf [32]loopGuard
	loops := buf[:0]
	for n := ev.guards; n != nil; n = n.parent {
		if !n.Controls(ev.PC) {
			continue
		}
		if bound, ok := loopBound(n.Guard); ok {
			loops = append(loops, loopGuard{n.PC, bound})
		}
	}
	dims := inf.dims[:0]
	for i := len(loops) - 1; i >= 0; i-- {
		g := loops[i]
		if slices.ContainsFunc(loops[i+1:], func(o loopGuard) bool { return o.pc == g.pc }) {
			continue // an enclosing guard at this pc already counted
		}
		if v, isConst := g.bound.ConstUint(); isConst && v >= 1 && v <= 1<<20 {
			dims = append(dims, v)
		}
	}
	inf.dims = dims
	return dims
}

// buildArray nests static arrays of dims (outermost first) over the
// element type, inside a dynamic array when dynamic is set. The element
// types the levels point to share one allocation.
func buildArray(dynamic bool, dims []uint64, elem abi.Type) abi.Type {
	outer := 0 // levels outside the static dims
	if dynamic {
		outer = 1
	}
	n := outer + len(dims)
	if n == 0 {
		return elem
	}
	level := func(k int, of *abi.Type) abi.Type {
		if k < outer {
			return abi.Type{Kind: abi.KindSlice, Elem: of}
		}
		return abi.Type{Kind: abi.KindArray, Len: int(dims[k-outer]), Elem: of}
	}
	// chain[k] is the element type of level k.
	chain := make([]abi.Type, n)
	chain[n-1] = elem
	for k := n - 1; k >= 1; k-- {
		chain[k-1] = level(k, &chain[k])
	}
	return level(0, &chain[0])
}

// constRead is one call-data read or copy at a constant offset off, for
// the static-array stages' grouping by pc.
type constRead struct {
	pc, off uint64
	ev      *Event
}

// groupReads sorts inf.reads by pc, keeping event order within a pc.
func (inf *inference) groupReads() []constRead {
	slices.SortStableFunc(inf.reads, func(a, b constRead) int { return cmp.Compare(a.pc, b.pc) })
	return inf.reads
}

// pcRun returns the leading run of reads sharing reads[0]'s pc.
func pcRun(reads []constRead) []constRead {
	n := 1
	for n < len(reads) && reads[n].pc == reads[0].pc {
		n++
	}
	return reads[:n]
}

// staticPublicArrays recognizes rule R6/R9 claims: per copying pc, the
// first copy from the lowest constant source.
func (inf *inference) staticPublicArrays() {
	prior := len(inf.claims)
	clear(inf.reads)
	inf.reads = inf.reads[:0]
	for _, ev := range inf.cdcs {
		if src, ok := ev.Src.ConstUint(); ok && src >= 4 {
			inf.reads = append(inf.reads, constRead{pc: ev.PC, off: src, ev: ev})
		}
	}
	for rest := inf.groupReads(); len(rest) > 0; {
		run := pcRun(rest)
		rest = rest[len(run):]
		g := run[0]
		for _, r := range run[1:] {
			if r.off < g.off {
				g = r
			}
		}
		if claimedBy(inf.claims[:prior], g.off) {
			continue
		}
		rowLen, ok := g.ev.Len.ConstUint()
		if !ok || rowLen == 0 || rowLen%32 != 0 {
			continue
		}
		inf.beginParam()
		inf.dims = append(inf.guardDims(g.ev), rowLen/32)
		dims := inf.dims
		total := uint64(32)
		for _, d := range dims {
			total *= d
		}
		if len(dims) == 1 {
			inf.hit(R6)
		} else {
			inf.hit(R9)
		}
		elem := inf.refineBasic(inf.profileFor(func(a *Expr) bool {
			d, ok2 := inf.descOf(a.Args[0])
			return ok2 && len(d.terms) == 0 && d.c >= g.off && d.c < g.off+total
		}))
		inf.claims = append(inf.claims, claim{off: g.off, size: total, typ: buildArray(false, dims, elem), rules: inf.takeRules()})
	}
}

// staticExternalArrays recognizes rule R3 (and Vyper R24) claims: the same
// CALLDATALOAD instruction observed at multiple constant offsets, guarded by
// constant bound checks.
func (inf *inference) staticExternalArrays() {
	prior := len(inf.claims)
	clear(inf.reads)
	inf.reads = inf.reads[:0]
	for _, ev := range inf.cdls {
		if off, ok := ev.Off.ConstUint(); ok && off >= 4 {
			inf.reads = append(inf.reads, constRead{pc: ev.PC, off: off, ev: ev})
		}
	}
	for rest := inf.groupReads(); len(rest) > 0; {
		run := pcRun(rest)
		rest = rest[len(run):]
		dims := inf.guardDims(run[0].ev)
		if len(run) < 2 && len(dims) == 0 {
			// A single unguarded load is a basic value, not an array.
			continue
		}
		base := run[0].off
		for _, r := range run[1:] {
			base = min(base, r.off)
		}
		if claimedBy(inf.claims[:prior], base) {
			continue
		}
		inf.beginParam()
		if len(dims) == 0 {
			// No bound checks: treat the distinct offsets as a 1-dim array.
			inf.dims = append(dims, uint64(len(run)))
			dims = inf.dims
		}
		total := uint64(32)
		for _, d := range dims {
			total *= d
		}
		if inf.lang == LangVyper {
			inf.hit(R24)
		} else {
			inf.hit(R3)
		}
		elem := inf.refineBasic(inf.profileFor(func(a *Expr) bool {
			d, ok2 := inf.descOf(a.Args[0])
			return ok2 && len(d.terms) == 0 && d.c >= base && d.c < base+total
		}))
		inf.claims = append(inf.claims, claim{off: base, size: total, typ: buildArray(false, dims, elem), rules: inf.takeRules()})
	}
}

// basicClaims turns the remaining constant head reads into basic values
// (rule R4 for Solidity, R25 for Vyper), one per offset.
func (inf *inference) basicClaims() {
	prior := len(inf.claims)
	for _, ev := range inf.cdls {
		off, ok := ev.Off.ConstUint()
		if !ok || off < 4 || claimedBy(inf.claims[:prior], off) ||
			slices.ContainsFunc(inf.claims[prior:], func(cl claim) bool { return cl.off == off }) {
			continue
		}
		inf.beginParam()
		if inf.lang == LangVyper {
			inf.hit(R25)
		} else {
			inf.hit(R4)
		}
		// Match the loaded value by its offset's *descriptor*, not by
		// string identity: loads reached through folded-constant address
		// arithmetic (e.g. base + 32*0) name the same slot.
		typ := inf.refineBasic(inf.profileFor(func(a *Expr) bool {
			d, ok2 := inf.descOf(a.Args[0])
			return ok2 && len(d.terms) == 0 && d.c == off
		}))
		inf.claims = append(inf.claims, claim{off: off, size: 32, typ: typ, rules: inf.takeRules()})
	}
}

// profileFor builds the operation profile of all values whose CData atoms
// match the predicate.
func (inf *inference) profileFor(isValueAtom func(*Expr) bool) profile {
	p := newProfile()
	isValue := func(e *Expr) bool {
		return e.Kind == KindCData && isValueAtom(e)
	}
	for _, ev := range inf.ops {
		p.observe(ev, isValue)
	}
	return p
}

// refineBasic maps a profile to a concrete basic type (rules R11-R18 for
// Solidity, R27-R31 for Vyper).
func (inf *inference) refineBasic(p profile) abi.Type {
	if inf.lang == LangVyper {
		switch {
		case p.vyBool:
			inf.hit(R30)
			return abi.Bool()
		case p.vyAddress:
			inf.hit(R27)
			return abi.Address()
		case p.vyInt128:
			inf.hit(R28)
			return abi.Int(128)
		case p.vyDecimal:
			inf.hit(R29)
			return abi.Decimal()
		case p.byteAccess:
			inf.hit(R31)
			return abi.FixedBytes(32)
		default:
			return abi.Uint(256)
		}
	}
	switch {
	case p.signExtendK >= 0:
		inf.hit(R13)
		return abi.Int((p.signExtendK + 1) * 8)
	case p.maskLowBytes == 20:
		if p.arithmetic {
			inf.hit(R11)
			return abi.Uint(160)
		}
		inf.hit(R16)
		return abi.Address()
	case p.maskLowBytes > 0 && p.maskLowBytes < 32:
		inf.hit(R11)
		return abi.Uint(p.maskLowBytes * 8)
	case p.maskHighBytes > 0 && p.maskHighBytes < 32:
		inf.hit(R12)
		return abi.FixedBytes(p.maskHighBytes)
	case p.doubleISZERO:
		inf.hit(R14)
		return abi.Bool()
	case p.byteAccess:
		inf.hit(R18)
		return abi.FixedBytes(32)
	case p.signedOp:
		inf.hit(R15)
		return abi.Int(256)
	default:
		return abi.Uint(256)
	}
}
