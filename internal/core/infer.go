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
// over one function's trace.
type inference struct {
	events []Event
	stats  RuleStats
	lang   Language

	cdls []Event // CALLDATALOAD events
	cdcs []Event // CALLDATACOPY events
	ops  []Event // tainted instruction events

	// valIndex maps a loaded value's canonical key to the CDL event that
	// produced it. viewBody needs it for every dynamic parameter; it is
	// built once per trace on first use instead of per call.
	valIndex map[string]Event

	// cur accumulates the rules applied while classifying the current
	// parameter (the per-parameter explanation).
	cur []RuleID

	// descMemo caches descOf by node: every parameter's classification
	// re-describes the same copy/load addresses, and descriptors are
	// immutable once built.
	descMemo map[*Expr]memoDesc

	// lin is the scratch term buffer behind linearize.
	lin []LinearTerm
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

// linParts reduces a Linear to a uint64 constant plus coefficient-1 atom
// keys. It fails for exotic forms (huge constants, non-unit coefficients on
// frame atoms), which the classifier treats as opaque.
type bodyDesc struct {
	c     uint64
	terms map[string]uint64 // atom key -> coefficient
}

func (inf *inference) descOf(e *Expr) (bodyDesc, bool) {
	// Nodes are interned per trace, so the pointer is a sound memo key;
	// classifiers re-describe the same addresses for every parameter, and
	// descriptors are immutable once built, so sharing them is safe.
	if m, ok := inf.descMemo[e]; ok {
		return m.d, m.ok
	}
	d, ok := inf.describe(e)
	if inf.descMemo == nil {
		inf.descMemo = make(map[*Expr]memoDesc)
	}
	inf.descMemo[e] = memoDesc{d: d, ok: ok}
	return d, ok
}

// memoDesc is a cached descOf outcome (negative results are cached too).
type memoDesc struct {
	d  bodyDesc
	ok bool
}

// describe is descOf without the memo.
func (inf *inference) describe(e *Expr) (bodyDesc, bool) {
	lin := inf.linearize(e)
	c, ok := lin.Const.Uint64()
	if !ok {
		return bodyDesc{}, false
	}
	d := bodyDesc{c: c}
	if len(lin.Terms) > 0 {
		d.terms = make(map[string]uint64, len(lin.Terms))
		for _, t := range lin.Terms {
			coeff, ok := t.Coeff.Uint64()
			if !ok {
				return bodyDesc{}, false
			}
			d.terms[t.Atom.String()] += coeff
		}
	}
	return d, true
}

// sameTerms reports whether two descriptors have identical symbolic parts.
func sameTerms(a, b bodyDesc) bool {
	if len(a.terms) != len(b.terms) {
		return false
	}
	for k, v := range a.terms {
		if b.terms[k] != v {
			return false
		}
	}
	return true
}

// extraTerms returns the atom keys in a but not in b (coefficient 1 only).
func extraTerms(a, b bodyDesc) []string {
	var out []string
	for k, v := range a.terms {
		if _, shared := b.terms[k]; !shared && v == 1 {
			out = append(out, k)
		}
	}
	slices.Sort(out)
	return out
}

// headAtomKey is the canonical key for the value loaded from a constant
// head offset. The classifier asks for the same small set of offsets
// (4 + 32k) for every parameter of every function, so the common keys are
// rendered once at init into a read-only table.
func headAtomKey(off uint64) string {
	if off >= 4 && (off-4)%32 == 0 {
		if slot := (off - 4) / 32; slot < uint64(len(headAtomKeys)) {
			return headAtomKeys[slot]
		}
	}
	return NewCData(NewConstUint(off)).String()
}

var headAtomKeys = func() [64]string {
	var keys [64]string
	for i := range keys {
		keys[i] = NewCData(NewConstUint(4 + 32*uint64(i))).String()
	}
	return keys
}()

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
	// Split the events by kind into one array: loads, then copies, then
	// the rest, each part capped so appends cannot spill into the next.
	var nCDL, nCDC int
	for _, ev := range tr.Events {
		switch ev.Kind {
		case EvCDL:
			nCDL++
		case EvCDC:
			nCDC++
		}
	}
	split := make([]Event, 0, len(tr.Events))
	inf.cdls = split[:0:nCDL]
	inf.cdcs = split[nCDL : nCDL : nCDL+nCDC]
	inf.ops = split[nCDL+nCDC : nCDL+nCDC]
	for _, ev := range tr.Events {
		switch ev.Kind {
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
	derefed := inf.derefedHeadSlots()
	for _, off := range derefed {
		inf.beginParam()
		typ := inf.classifyDynamic(off)
		claims = append(claims, claim{off: off, size: 32, typ: typ, rules: inf.takeRules()})
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

// derefedHeadSlots finds constant head offsets whose loaded value is used as
// a base of further call-data reads or copies (offset fields).
func (inf *inference) derefedHeadSlots() []uint64 {
	uses := make(map[string]bool)
	note := func(e *Expr) {
		if d, ok := inf.descOf(e); ok {
			for k := range d.terms {
				uses[k] = true
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
	seen := make(map[uint64]bool)
	var out []uint64
	for _, ev := range inf.cdls {
		off, ok := ev.Off.ConstUint()
		if !ok || off < 4 || seen[off] {
			continue
		}
		if uses[headAtomKey(off)] {
			seen[off] = true
			out = append(out, off)
		}
	}
	slices.Sort(out)
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
// derived bounds dynamic ones (nil entry).
func guardDims(ev Event) (constDims []uint64, dynCount int) {
	seen := make(map[uint64]bool)
	for _, g := range ev.Guards {
		if seen[g.PC] || !g.Controls(ev.PC) {
			continue
		}
		bound, ok := loopBound(g)
		if !ok {
			continue
		}
		seen[g.PC] = true
		if v, isConst := bound.ConstUint(); isConst {
			if v >= 1 && v <= 1<<20 {
				constDims = append(constDims, v)
			}
			continue
		}
		if bound.ContainsCData() {
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
		ev     Event
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
		ev   Event
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
