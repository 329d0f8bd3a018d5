package core

import (
	"cmp"
	"slices"

	"sigrec/internal/abi"
	"sigrec/internal/evm"
)

// maxNestingDepth bounds recursive classification of nested values.
const maxNestingDepth = 8

// classifyDynamic classifies the parameter whose offset field sits at the
// constant head offset off (rule R1 and everything hanging off it in the
// decision tree).
func (inf *inference) classifyDynamic(off uint64) abi.Type {
	body := bodyDesc{c: 4, terms: map[string]uint64{headAtomKey(off): 1}}
	return inf.classifyBody(body, 0)
}

// coversTerms reports whether d includes all of body's terms with equal
// coefficients.
func coversTerms(d, body bodyDesc) bool {
	for k, v := range body.terms {
		if d.terms[k] != v {
			return false
		}
	}
	return true
}

// bodyView gathers everything the trace says about one body region.
type bodyView struct {
	body bodyDesc
	// numEv is the read of the first body word (the num field, or the
	// first struct member / element offset).
	numEv  *Event
	numKey string
	// direct maps delta -> first CDL reading body+delta with no extra atoms.
	direct map[uint64]Event
	// directByPC groups direct read deltas by instruction.
	directByPC map[uint64][]uint64
	// children are dereferenced inner values: slotDelta is where their
	// offset field lives relative to the body start.
	children []childRef
}

type childRef struct {
	key       string // the inner offset atom's canonical key
	slotDelta uint64
	pc        uint64 // instruction that loaded the inner offset
	origin    Event
}

// viewBody scans the CDL events for reads belonging to the body region.
func (inf *inference) viewBody(body bodyDesc) *bodyView {
	v := &bodyView{
		body:       body,
		direct:     make(map[uint64]Event),
		directByPC: make(map[uint64][]uint64),
	}
	// Index: value key -> loading event (to locate inner offset origins).
	// The CDL set is fixed for the whole trace, so build it lazily once
	// and reuse it across the per-parameter viewBody calls.
	if inf.valIndex == nil {
		inf.valIndex = make(map[string]Event, len(inf.cdls))
		for _, ev := range inf.cdls {
			k := ev.Val.String()
			if _, dup := inf.valIndex[k]; !dup {
				inf.valIndex[k] = ev
			}
		}
	}
	valIndex := inf.valIndex
	seenChild := make(map[string]bool)
	for _, ev := range inf.cdls {
		d, ok := inf.descOf(ev.Off)
		if !ok || !coversTerms(d, body) || d.c < body.c {
			continue
		}
		extra := extraTerms(d, body)
		switch {
		case len(d.terms) == len(body.terms):
			delta := d.c - body.c
			if _, dup := v.direct[delta]; !dup {
				v.direct[delta] = ev
			}
			v.directByPC[ev.PC] = append(v.directByPC[ev.PC], delta)
			if delta == 0 && v.numEv == nil {
				e := ev
				v.numEv = &e
				v.numKey = ev.Val.String()
			}
		case len(extra) == 1 && len(d.terms) == len(body.terms)+1:
			key := extra[0]
			if seenChild[key] {
				continue
			}
			origin, found := valIndex[key]
			if !found {
				continue
			}
			od, ok2 := inf.descOf(origin.Off)
			if !ok2 || !sameTerms(od, body) || od.c < body.c {
				continue
			}
			seenChild[key] = true
			v.children = append(v.children, childRef{
				key:       key,
				slotDelta: od.c - body.c,
				pc:        origin.PC,
				origin:    origin,
			})
		}
	}
	slices.SortFunc(v.children, func(a, b childRef) int {
		return cmp.Compare(a.slotDelta, b.slotDelta)
	})
	return v
}

// numUsedAsBound reports whether the num value itself is compared as a loop
// bound or range limit. The atom must appear as a top-level linear term of
// the compared value: appearing merely inside an address computation (an
// offset used to locate some other bound) does not count.
func (inf *inference) numUsedAsBound(numKey string) bool {
	if numKey == "" {
		return false
	}
	isBound := func(b *Expr) bool {
		if b.String() == numKey {
			return true
		}
		lin := inf.linearize(b)
		for _, t := range lin.Terms {
			if t.Atom.String() == numKey {
				return true
			}
		}
		return false
	}
	for _, ev := range inf.events {
		for _, g := range ev.Guards {
			if bound, ok := loopBound(g); ok && isBound(bound) {
				return true
			}
		}
	}
	for _, ev := range inf.ops {
		switch ev.Op {
		case evm.LT, evm.GT:
			if isBound(ev.Args[0]) || isBound(ev.Args[1]) {
				return true
			}
		}
	}
	return false
}

// exprHasAtom reports whether any node of e renders to the given key.
func exprHasAtom(e *Expr, key string) bool {
	if e.String() == key {
		return true
	}
	for _, a := range e.Args {
		if exprHasAtom(a, key) {
			return true
		}
	}
	return false
}

// classifyBody determines the type of the dynamic value whose body starts
// at the described call-data position.
func (inf *inference) classifyBody(body bodyDesc, depth int) abi.Type {
	if depth > maxNestingDepth {
		return abi.Uint(256)
	}
	v := inf.viewBody(body)
	if v.numEv != nil && depth == 0 {
		inf.hit(R1)
	}

	// Public-mode copies take priority: they are unambiguous.
	if t, ok := inf.classifyCopied(v); ok {
		return t
	}
	// Dereferenced inner values: nested arrays or structs with dynamic
	// members.
	if len(v.children) > 0 {
		return inf.classifyNested(v, depth)
	}
	usedAsBound := inf.numUsedAsBound(v.numKey)
	if usedAsBound {
		return inf.classifySequence(v, depth)
	}
	// No length semantics: a struct of statically-encoded members (R21).
	return inf.classifyStruct(v, nil, depth)
}

// classifyCopied handles the CALLDATACOPY-based public patterns
// (R5/R7/R8/R10 and Vyper's R23/R26).
func (inf *inference) classifyCopied(v *bodyView) (abi.Type, bool) {
	contentProfile := func() profile {
		return inf.profileFor(func(a *Expr) bool {
			d, ok := inf.descOf(a.Args[0])
			return ok && sameTerms(d, v.body) && d.c >= v.body.c+32
		})
	}
	for _, ev := range inf.cdcs {
		d, ok := inf.descOf(ev.Src)
		if !ok || !sameTerms(d, v.body) || d.c < v.body.c {
			continue
		}
		// 1-dim dynamic array: copy length is num*32.
		if v.numKey != "" {
			lenLin := inf.linearize(ev.Len)
			if coeff, has := lenLin.TermFor(v.numKey); has && coeff.Eq(evm.WordFromUint64(32)) {
				inf.hit(R5)
				inf.hit(R7)
				elem := inf.refineBasic(contentProfile())
				return abi.SliceOf(elem), true
			}
		}
		// bytes/string: copy length is num rounded up to a 32 multiple.
		if hasRoundUpDiv(ev.Len) {
			inf.hit(R5)
			inf.hit(R8)
			p := contentProfile()
			if p.byteAccess {
				inf.hit(R17)
				return abi.Bytes(), true
			}
			return abi.String_(), true
		}
		// Constant-length copies.
		if ln, isConst := ev.Len.ConstUint(); isConst && ln >= 32 {
			if inf.lang == LangVyper && d.c == v.body.c {
				// Vyper bytes[maxLen]/string[maxLen]: the copy starts at the
				// num field and covers 32+maxLen bytes.
				inf.hit(R23)
				maxLen := int(ln - 32)
				p := contentProfile()
				if p.byteAccess {
					inf.hit(R26)
					return abi.BoundedBytes(maxLen), true
				}
				return abi.BoundedString(maxLen), true
			}
			if d.c >= v.body.c+32 {
				// Row copies of a multi-dimensional dynamic array.
				inf.hit(R5)
				inf.hit(R10)
				constDims, _ := guardDims(ev)
				dims := append(constDims, ln/32)
				elem := inf.refineBasic(contentProfile())
				return abi.SliceOf(buildStaticArray(dims, elem)), true
			}
		}
	}
	return abi.Type{}, false
}

// hasRoundUpDiv detects the ((num+31)/32)*32 length computation.
func hasRoundUpDiv(e *Expr) bool {
	if e.Kind == KindApp && e.Op == evm.DIV {
		if c, ok := e.Args[1].ConstUint(); ok && c == 32 && e.Args[0].ContainsCData() {
			return true
		}
	}
	for _, a := range e.Args {
		if hasRoundUpDiv(a) {
			return true
		}
	}
	return false
}

// classifySequence handles external-mode length-prefixed values: dynamic
// arrays (R2) and bytes/string (R17 and its negation).
func (inf *inference) classifySequence(v *bodyView, depth int) abi.Type {
	// Collect item reads: direct reads past the num field, grouped by pc.
	type pcGroup struct {
		pc     uint64
		deltas []uint64
	}
	var groups []pcGroup
	for pc, deltas := range v.directByPC {
		var past []uint64
		for _, d := range deltas {
			if d >= 32 {
				past = append(past, d)
			}
		}
		if len(past) > 0 {
			slices.Sort(past)
			groups = append(groups, pcGroup{pc: pc, deltas: past})
		}
	}
	if len(groups) == 0 {
		// Length checked but content untouched: no element clues. The
		// paper's tie-break for an opaque length-prefixed value is string.
		return abi.String_()
	}
	slices.SortFunc(groups, func(a, b pcGroup) int { return cmp.Compare(a.deltas[0], b.deltas[0]) })
	g := groups[0]
	stride := uint64(0)
	if len(g.deltas) >= 2 {
		stride = g.deltas[1] - g.deltas[0]
	}
	contentProfile := inf.profileFor(func(a *Expr) bool {
		d, ok := inf.descOf(a.Args[0])
		return ok && sameTerms(d, v.body) && d.c >= v.body.c+32
	})
	if stride >= 1 && stride < 32 {
		// Byte-granular access: bytes or string.
		if contentProfile.byteAccess {
			inf.hit(R17)
			return abi.Bytes()
		}
		return abi.String_()
	}
	if stride == 0 {
		// Single guarded access: bytes (with BYTE) or string.
		if contentProfile.byteAccess {
			inf.hit(R17)
			return abi.Bytes()
		}
		return abi.String_()
	}
	// 32-byte stride: a dynamic array; inner static dimensions come from the
	// constant bound checks on the item read.
	itemEv := v.direct[g.deltas[0]]
	constDims, _ := guardDims(itemEv)
	inf.hit(R2)
	elem := inf.refineBasic(contentProfile)
	return abi.SliceOf(buildStaticArray(constDims, elem))
}

// classifyNested handles bodies with dereferenced inner values: nested
// arrays (R22/R19) and dynamic structs (R21).
func (inf *inference) classifyNested(v *bodyView, depth int) abi.Type {
	usedAsBound := inf.numUsedAsBound(v.numKey)

	// Group children by loading instruction: a loop (one pc, many slots)
	// means array elements; distinct pcs mean struct members.
	byPC := make(map[uint64][]childRef)
	var pcOrder []uint64
	for _, c := range v.children {
		if _, ok := byPC[c.pc]; !ok {
			pcOrder = append(pcOrder, c.pc)
		}
		byPC[c.pc] = append(byPC[c.pc], c)
	}

	if usedAsBound && len(pcOrder) >= 1 {
		// Slice of dynamic elements: element offsets live at body+32+32i.
		first := byPC[pcOrder[0]][0]
		childBody := bodyDesc{
			c:     v.body.c + 32,
			terms: withTerm(v.body.terms, first.key),
		}
		inf.hit(R22)
		elem := inf.classifyBody(childBody, depth+1)
		return abi.SliceOf(elem)
	}

	// No num: either a static-length array of dynamic elements (loop) or a
	// struct with dynamic members (straight-line member code).
	if len(pcOrder) == 1 {
		group := byPC[pcOrder[0]]
		constDims, _ := guardDims(group[0].origin)
		if len(constDims) >= 1 {
			childBody := bodyDesc{
				c:     v.body.c,
				terms: withTerm(v.body.terms, group[0].key),
			}
			inf.hit(R22)
			elem := inf.classifyBody(childBody, depth+1)
			return abi.ArrayOf(elem, int(constDims[len(constDims)-1]))
		}
	}
	return inf.classifyStruct(v, byPC, depth)
}

// classifyStruct assembles a tuple from static member reads and dynamic
// children (R21, with R19 for nested-array members).
func (inf *inference) classifyStruct(v *bodyView, byPC map[uint64][]childRef, depth int) abi.Type {
	type fieldSlot struct {
		delta uint64
		typ   abi.Type
	}
	var fields []fieldSlot
	childAt := make(map[uint64]childRef)
	for _, c := range v.children {
		childAt[c.slotDelta] = c
	}
	// Dynamic members.
	for delta, c := range childAt {
		childBody := bodyDesc{c: v.body.c, terms: withTerm(v.body.terms, c.key)}
		t := inf.classifyBody(childBody, depth+1)
		if isNestedArray(t) {
			inf.hit(R19)
		}
		fields = append(fields, fieldSlot{delta: delta, typ: t})
	}
	// Static members: direct reads at deltas with no child claim.
	for delta, ev := range v.direct {
		if _, isChild := childAt[delta]; isChild {
			continue
		}
		key := ev.Val.String()
		t := inf.refineBasic(inf.profileFor(func(a *Expr) bool {
			return a.String() == key
		}))
		fields = append(fields, fieldSlot{delta: delta, typ: t})
	}
	if len(fields) == 0 {
		return abi.String_()
	}
	slices.SortFunc(fields, func(a, b fieldSlot) int { return cmp.Compare(a.delta, b.delta) })
	out := make([]abi.Type, len(fields))
	for i, f := range fields {
		out[i] = f.typ
	}
	inf.hit(R21)
	return abi.TupleOf(out...)
}

// isNestedArray reports a multi-dimensional array with a dynamic inner
// dimension (the paper's nested-array definition).
func isNestedArray(t abi.Type) bool {
	switch t.Kind {
	case abi.KindSlice, abi.KindArray:
		e := *t.Elem
		return e.Kind == abi.KindSlice || (e.Kind == abi.KindArray && e.IsDynamic())
	default:
		return false
	}
}

func withTerm(terms map[string]uint64, key string) map[string]uint64 {
	out := make(map[string]uint64, len(terms)+1)
	for k, v := range terms {
		out[k] = v
	}
	out[key] = 1
	return out
}
