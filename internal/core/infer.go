package core

import (
	"cmp"
	"slices"

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
type inference struct {
	events []Event
	stats  RuleStats
	lang   Language

	// The events by kind, as views into events.
	cdls []*Event // CALLDATALOAD events
	cdcs []*Event // CALLDATACOPY events
	ops  []*Event // tainted instruction events

	// cur accumulates the rules applied while classifying the current
	// parameter (the per-parameter explanation).
	cur []RuleID

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

	// lin is the scratch term buffer behind linearize.
	lin []LinearTerm
}

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

// hit records a rule application against the global stats, the pipeline's
// per-rule fired counters (sigrec_rule_fired_total{rule=...}), and the
// current parameter's explanation.
func (inf *inference) hit(r RuleID) {
	inf.stats.hit(r)
	mRuleFired[r].Inc()
	inf.cur = append(inf.cur, r)
}

// beginParam starts a fresh explanation and returns the rules applied to
// the previous parameter.
func (inf *inference) beginParam() {
	inf.cur = nil
}

func (inf *inference) takeRules() []RuleID {
	out := inf.cur
	inf.cur = nil
	return out
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

// Infer runs type inference with per-parameter rule explanations.
func Infer(tr Trace) Inferred {
	inf := &inference{events: tr.Events, lang: LangSolidity}
	if tr.it != nil && len(tr.Events) > 0 {
		inf.nodes = make([]nodeInfo, tr.it.nextID+1)
	}
	// Split the events by kind into one array of views: loads, then
	// copies, then the rest, each part capped so appends cannot spill into
	// the next.
	var nCDL, nCDC int
	for _, ev := range tr.Events {
		switch ev.Kind {
		case EvCDL:
			nCDL++
		case EvCDC:
			nCDC++
		}
	}
	split := make([]*Event, 0, len(tr.Events))
	inf.cdls = split[:0:nCDL]
	inf.cdcs = split[nCDL : nCDL : nCDL+nCDC]
	inf.ops = split[nCDL+nCDC : nCDL+nCDC]
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
	inf.detectLanguage()
	langRules := inf.takeRules() // R20, when it fired
	types, paramRules := inf.classify()
	if len(langRules) > 0 && len(paramRules) > 0 {
		// Attribute language detection to the first parameter's trail so
		// the explanation reads root-first, as in the decision tree.
		paramRules[0] = append(langRules, paramRules[0]...)
	}
	return Inferred{Types: types, ParamRules: paramRules, Language: inf.lang, Stats: inf.stats}
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
	rules []RuleID
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
// per parameter, returning the types and per-parameter rule trails. Each
// stage sees the claims of the stages before it, not its own.
func (inf *inference) classify() ([]abi.Type, [][]RuleID) {
	var claims []claim

	// 1. Dynamic parameters: head slots whose loaded value is dereferenced.
	for _, h := range inf.derefedHeadSlots() {
		inf.beginParam()
		typ := inf.classifyDynamic(h.atom)
		claims = append(claims, claim{off: h.off, size: 32, typ: typ, rules: inf.takeRules()})
	}

	// 2. Static arrays copied in public mode (constant-source CALLDATACOPY).
	claims = append(claims, inf.staticPublicArrays(claims)...)

	// 3. Static arrays read in external mode (pc-grouped constant loads
	//    under constant bound checks).
	claims = append(claims, inf.staticExternalArrays(claims)...)

	// 4. Remaining constant head reads are basic values.
	claims = append(claims, inf.basicClaims(claims)...)

	slices.SortFunc(claims, func(a, b claim) int { return cmp.Compare(a.off, b.off) })
	types := make([]abi.Type, 0, len(claims))
	rules := make([][]RuleID, 0, len(claims))
	for _, cl := range claims {
		types = append(types, cl.typ)
		rules = append(rules, cl.rules)
	}
	return types, rules
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
// copies (offset fields).
func (inf *inference) derefedHeadSlots() []headSlot {
	var uses []*Expr
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
	var out []headSlot
	for _, ev := range inf.cdls {
		off, ok := headOffset(ev.Val)
		if !ok || off < 4 || !slices.Contains(uses, ev.Val) ||
			slices.ContainsFunc(out, func(h headSlot) bool { return h.off == off }) {
			continue
		}
		out = append(out, headSlot{off: off, atom: ev.Val})
	}
	slices.SortFunc(out, func(a, b headSlot) int { return cmp.Compare(a.off, b.off) })
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

// guardDims extracts the loop dimension bounds controlling an event,
// outermost first: constant bounds yield static dimensions, call-data-
// derived bounds dynamic ones (nil entry). Of several guards at one JUMPI
// pc, the outermost one counts.
func guardDims(ev *Event) (constDims []uint64, dynCount int) {
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
	for i := len(loops) - 1; i >= 0; i-- {
		g := loops[i]
		if slices.ContainsFunc(loops[i+1:], func(o loopGuard) bool { return o.pc == g.pc }) {
			continue // an enclosing guard at this pc already counted
		}
		if v, isConst := g.bound.ConstUint(); isConst {
			if v >= 1 && v <= 1<<20 {
				constDims = append(constDims, v)
			}
			continue
		}
		if g.bound.ContainsCData() {
			dynCount++
		}
	}
	return constDims, dynCount
}

// buildStaticArray nests dims (outermost first) over the element type.
func buildStaticArray(dims []uint64, elem abi.Type) abi.Type {
	t := elem
	for i := len(dims) - 1; i >= 0; i-- {
		t = abi.ArrayOf(t, int(dims[i]))
	}
	return t
}

// staticPublicArrays recognizes rule R6/R9 claims.
func (inf *inference) staticPublicArrays(claims []claim) []claim {
	type group struct {
		minSrc uint64
		ev     *Event
	}
	groups := make(map[uint64]*group)
	var order []uint64
	for _, ev := range inf.cdcs {
		src, ok := ev.Src.ConstUint()
		if !ok || src < 4 {
			continue
		}
		g, exists := groups[ev.PC]
		if !exists {
			groups[ev.PC] = &group{minSrc: src, ev: ev}
			order = append(order, ev.PC)
			continue
		}
		if src < g.minSrc {
			g.minSrc = src
			g.ev = ev
		}
	}
	slices.Sort(order)
	var out []claim
	for _, pc := range order {
		g := groups[pc]
		if claimedBy(claims, g.minSrc) {
			continue
		}
		inf.beginParam()
		rowLen, ok := g.ev.Len.ConstUint()
		if !ok || rowLen == 0 || rowLen%32 != 0 {
			continue
		}
		dims, _ := guardDims(g.ev)
		dims = append(dims, rowLen/32)
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
			return ok2 && len(d.terms) == 0 && d.c >= g.minSrc && d.c < g.minSrc+total
		}))
		out = append(out, claim{off: g.minSrc, size: total, typ: buildStaticArray(dims, elem), rules: inf.takeRules()})
	}
	return out
}

// staticExternalArrays recognizes rule R3 (and Vyper R24) claims: the same
// CALLDATALOAD instruction observed at multiple constant offsets, guarded by
// constant bound checks.
func (inf *inference) staticExternalArrays(claims []claim) []claim {
	type group struct {
		offs []uint64
		ev   *Event
	}
	groups := make(map[uint64]*group)
	var order []uint64
	for _, ev := range inf.cdls {
		off, ok := ev.Off.ConstUint()
		if !ok || off < 4 {
			continue
		}
		g, exists := groups[ev.PC]
		if !exists {
			groups[ev.PC] = &group{offs: []uint64{off}, ev: ev}
			order = append(order, ev.PC)
			continue
		}
		g.offs = append(g.offs, off)
	}
	slices.Sort(order)
	var out []claim
	for _, pc := range order {
		g := groups[pc]
		dims, _ := guardDims(g.ev)
		if len(g.offs) < 2 && len(dims) == 0 {
			// A single unguarded load is a basic value, not an array.
			continue
		}
		slices.Sort(g.offs)
		base := g.offs[0]
		if claimedBy(claims, base) {
			continue
		}
		inf.beginParam()
		if len(dims) == 0 {
			// No bound checks: treat the distinct offsets as a 1-dim array.
			dims = []uint64{uint64(len(g.offs))}
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
		out = append(out, claim{off: base, size: total, typ: buildStaticArray(dims, elem), rules: inf.takeRules()})
	}
	return out
}

// basicClaims turns the remaining constant head reads into basic values
// (rule R4 for Solidity, R25 for Vyper).
func (inf *inference) basicClaims(claims []claim) []claim {
	seen := make(map[uint64]bool)
	var out []claim
	for _, ev := range inf.cdls {
		off, ok := ev.Off.ConstUint()
		if !ok || off < 4 || claimedBy(claims, off) || seen[off] {
			continue
		}
		seen[off] = true
		inf.beginParam()
		if inf.lang == LangVyper {
			inf.hit(R25)
		} else {
			inf.hit(R4)
		}
		// Match the loaded value by its offset's *descriptor*, not by
		// string identity: loads reached through folded-constant address
		// arithmetic (e.g. base + 32*0) name the same slot.
		slot := off
		typ := inf.refineBasic(inf.profileFor(func(a *Expr) bool {
			d, ok2 := inf.descOf(a.Args[0])
			return ok2 && len(d.terms) == 0 && d.c == slot
		}))
		out = append(out, claim{off: off, size: 32, typ: typ, rules: inf.takeRules()})
	}
	return out
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
