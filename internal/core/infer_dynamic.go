package core

import (
	"cmp"
	"slices"

	"sigrec/internal/abi"
	"sigrec/internal/evm"
)

// maxNestingDepth bounds recursive classification of nested values.
const maxNestingDepth = 8

// classifyDynamic classifies the parameter whose offset field is the value
// atom loaded from a constant head offset (rule R1 and everything hanging
// off it in the decision tree).
func (inf *inference) classifyDynamic(atom *Expr) abi.Type {
	body := bodyDesc{c: 4, terms: inf.withTerm(nil, atom)}
	return inf.classifyBody(body, 0)
}

// bodyView gathers everything the trace says about one body region.
type bodyView struct {
	body bodyDesc
	// num is the value of the first body word (the num field, or the first
	// struct member / element offset); nil when the trace never reads it.
	num *Expr
	// reads are the CDLs reading body+delta with no extra atoms, in event
	// order.
	reads []bodyRead
	// children are dereferenced inner values: slotDelta is where their
	// offset field lives relative to the body start.
	children []childRef
	// fields is classifyStruct's buffer for the body's members.
	fields []fieldSlot
}

// reset empties the view for its next body, clearing what the last one
// left in its buffers.
func (v *bodyView) reset() {
	clear(v.reads)
	clear(v.children)
	clear(v.fields)
	*v = bodyView{reads: v.reads[:0], children: v.children[:0], fields: v.fields[:0]}
}

type bodyRead struct {
	delta uint64
	ev    *Event
}

// direct returns the first read of body+delta, or nil.
func (v *bodyView) direct(delta uint64) *Event {
	for _, r := range v.reads {
		if r.delta == delta {
			return r.ev
		}
	}
	return nil
}

type childRef struct {
	atom      *Expr // the inner offset value
	slotDelta uint64
	pc        uint64 // instruction that loaded the inner offset
	origin    *Event
}

// viewBody scans the CDL events for reads belonging to the body region,
// into the view kept for the nesting depth: a view is read only until the
// body's classification returns, and only deeper bodies are classified
// meanwhile.
func (inf *inference) viewBody(body bodyDesc, depth int) *bodyView {
	v := &inf.views[depth]
	v.reset()
	v.body = body
	for _, ev := range inf.cdls {
		d, ok := inf.descOf(ev.Off)
		if !ok || !coversTerms(d, body) || d.c < body.c {
			continue
		}
		switch {
		case len(d.terms) == len(body.terms):
			delta := d.c - body.c
			v.reads = append(v.reads, bodyRead{delta: delta, ev: ev})
			if delta == 0 && v.num == nil {
				v.num = ev.Val
			}
		case len(d.terms) == len(body.terms)+1:
			atom, one := extraTerm(d, body)
			if !one || slices.ContainsFunc(v.children, func(c childRef) bool { return c.atom == atom }) {
				continue
			}
			origin := inf.loadOf(atom)
			if origin == nil {
				continue
			}
			od, ok2 := inf.descOf(origin.Off)
			if !ok2 || !sameTerms(od, body) || od.c < body.c {
				continue
			}
			v.children = append(v.children, childRef{
				atom:      atom,
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

// loadOf returns the first CDL event whose loaded value is val, or nil. The
// index behind it is built once per trace, on first use.
func (inf *inference) loadOf(val *Expr) *Event {
	n := inf.info(val)
	if n == nil {
		for _, ev := range inf.cdls {
			if ev.Val == val {
				return ev
			}
		}
		return nil
	}
	if !inf.loadsIndexed {
		inf.loadsIndexed = true
		for i, ev := range inf.cdls {
			if m := inf.info(ev.Val); m != nil && m.load == 0 {
				m.load = int32(i + 1)
			}
		}
	}
	if n.load == 0 {
		return nil
	}
	return inf.cdls[n.load-1]
}

// numUsedAsBound reports whether the num value itself is compared as a loop
// bound or range limit. The atom must appear as a top-level linear term of
// the compared value: appearing merely inside an address computation (an
// offset used to locate some other bound) does not count.
func (inf *inference) numUsedAsBound(num *Expr) bool {
	if num == nil {
		return false
	}
	if !inf.boundsMarked {
		inf.markBounds()
	}
	if n := inf.info(num); n != nil {
		return n.bound
	}
	return slices.Contains(inf.otherBounds, num)
}

// markBounds marks, once per trace, every loop-guard bound and every value
// compared by LT or GT, and the top-level linear terms of each.
func (inf *inference) markBounds() {
	inf.boundsMarked = true
	mark := func(b *Expr) {
		n := inf.info(b)
		if n != nil && n.linearized {
			return
		}
		if n != nil {
			n.linearized = true
		}
		inf.markBound(b)
		for _, t := range inf.linearize(b).Terms {
			inf.markBound(t.Atom)
		}
	}
	for _, ev := range inf.events {
		for g := ev.guards; g != nil; g = g.parent {
			if bound, ok := loopBound(g.Guard); ok {
				mark(bound)
			}
		}
	}
	for _, ev := range inf.ops {
		switch ev.Op {
		case evm.LT, evm.GT:
			mark(ev.Args[0])
			mark(ev.Args[1])
		}
	}
}

// markBound records e as a bound.
func (inf *inference) markBound(e *Expr) {
	if n := inf.info(e); n != nil {
		n.bound = true
	} else if !slices.Contains(inf.otherBounds, e) {
		inf.otherBounds = append(inf.otherBounds, e)
	}
}

// classifyBody determines the type of the dynamic value whose body starts
// at the described call-data position.
func (inf *inference) classifyBody(body bodyDesc, depth int) abi.Type {
	if depth > maxNestingDepth {
		return abi.Uint(256)
	}
	v := inf.viewBody(body, depth)
	if v.num != nil && depth == 0 {
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
	if inf.numUsedAsBound(v.num) {
		return inf.classifySequence(v, depth)
	}
	// No length semantics: a struct of statically-encoded members (R21).
	return inf.classifyStruct(v, depth)
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
		if v.num != nil {
			lenLin := inf.linearize(ev.Len)
			if coeff, has := lenLin.TermFor(v.num); has && coeff.Eq(evm.WordFromUint64(32)) {
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
				inf.dims = append(inf.guardDims(ev), ln/32)
				elem := inf.refineBasic(contentProfile())
				return buildArray(true, inf.dims, elem), true
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
	groups := inf.items[:0]
	for _, r := range v.reads {
		if r.delta < 32 {
			continue
		}
		i := slices.IndexFunc(groups, func(g itemGroup) bool { return g.pc == r.ev.PC })
		if i < 0 {
			i = len(groups)
			groups = append(groups, itemGroup{pc: r.ev.PC})
		}
		groups[i].add(r.delta)
	}
	inf.items = groups
	if len(groups) == 0 {
		// Length checked but content untouched: no element clues. The
		// paper's tie-break for an opaque length-prefixed value is string.
		return abi.String_()
	}
	slices.SortFunc(groups, func(a, b itemGroup) int { return cmp.Compare(a.lo, b.lo) })
	g := groups[0]
	stride := uint64(0)
	if g.n >= 2 {
		stride = g.next - g.lo
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
	constDims := inf.guardDims(v.direct(g.lo))
	inf.hit(R2)
	elem := inf.refineBasic(contentProfile)
	return buildArray(true, constDims, elem)
}

// itemGroup is one pc's item reads of a length-prefixed value: how many,
// and the lowest two of their deltas (equal when a delta repeats).
type itemGroup struct {
	pc       uint64
	n        int
	lo, next uint64
}

// add counts one more read at delta.
func (g *itemGroup) add(delta uint64) {
	switch {
	case g.n == 0:
		g.lo = delta
	case delta < g.lo:
		g.lo, g.next = delta, g.lo
	case g.n == 1 || delta < g.next:
		g.next = delta
	}
	g.n++
}

// classifyNested handles bodies with dereferenced inner values: nested
// arrays (R22/R19) and dynamic structs (R21). The caller guarantees at
// least one child.
func (inf *inference) classifyNested(v *bodyView, depth int) abi.Type {
	// The first child leads: a loop (one pc, many slots) means array
	// elements; distinct pcs mean struct members.
	first := v.children[0]
	if inf.numUsedAsBound(v.num) {
		// Slice of dynamic elements: element offsets live at body+32+32i.
		childBody := bodyDesc{
			c:     v.body.c + 32,
			terms: inf.withTerm(v.body.terms, first.atom),
		}
		inf.hit(R22)
		elem := inf.classifyBody(childBody, depth+1)
		return abi.SliceOf(elem)
	}

	// No num: either a static-length array of dynamic elements (loop) or a
	// struct with dynamic members (straight-line member code).
	onePC := !slices.ContainsFunc(v.children, func(c childRef) bool { return c.pc != first.pc })
	if onePC {
		if constDims := inf.guardDims(first.origin); len(constDims) >= 1 {
			n := int(constDims[len(constDims)-1]) // read before the buffer is reused
			childBody := bodyDesc{
				c:     v.body.c,
				terms: inf.withTerm(v.body.terms, first.atom),
			}
			inf.hit(R22)
			elem := inf.classifyBody(childBody, depth+1)
			return abi.ArrayOf(elem, n)
		}
	}
	return inf.classifyStruct(v, depth)
}

// classifyStruct assembles a tuple from static member reads and dynamic
// children (R21, with R19 for nested-array members): the dynamic members
// first, then the static ones, each in offset order.
func (inf *inference) classifyStruct(v *bodyView, depth int) abi.Type {
	fields := v.fields
	// Dynamic members. Children are sorted by slot; of several at one slot
	// the last one found holds it.
	isChild := func(delta uint64) bool {
		_, found := slices.BinarySearchFunc(v.children, delta, func(c childRef, d uint64) int {
			return cmp.Compare(c.slotDelta, d)
		})
		return found
	}
	for i, c := range v.children {
		if i+1 < len(v.children) && v.children[i+1].slotDelta == c.slotDelta {
			continue
		}
		childBody := bodyDesc{c: v.body.c, terms: inf.withTerm(v.body.terms, c.atom)}
		t := inf.classifyBody(childBody, depth+1)
		if isNestedArray(t) {
			inf.hit(R19)
		}
		fields = append(fields, fieldSlot{delta: c.slotDelta, typ: t})
	}
	// Static members: the first direct read at each slot no child holds.
	statics := len(fields)
	for _, r := range v.reads {
		if isChild(r.delta) || slices.ContainsFunc(fields[statics:], func(f fieldSlot) bool { return f.delta == r.delta }) {
			continue
		}
		fields = append(fields, fieldSlot{delta: r.delta})
	}
	v.fields = fields
	slices.SortFunc(fields[statics:], func(a, b fieldSlot) int { return cmp.Compare(a.delta, b.delta) })
	for i := statics; i < len(fields); i++ {
		val := v.direct(fields[i].delta).Val
		fields[i].typ = inf.refineBasic(inf.profileFor(func(a *Expr) bool { return a == val }))
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
	return abi.Type{Kind: abi.KindTuple, Fields: out}
}

// fieldSlot is one struct member: its slot relative to the body start and
// its type.
type fieldSlot struct {
	delta uint64
	typ   abi.Type
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
