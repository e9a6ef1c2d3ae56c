package ralg

import (
	"fmt"
	"slices"
	"strings"

	"mxq/internal/store"
	"mxq/internal/xqerr"
	"mxq/internal/xqt"
)

// elemCursor walks one (iter, item) input of an ElemConstruct.
type elemCursor struct {
	iter []int64
	item *ItemVec
	pos  int
}

// at returns the rows of iteration it; iterations are visited ascending.
func (c *elemCursor) at(it int64) (lo, hi int) {
	for c.pos < len(c.iter) && c.iter[c.pos] < it {
		c.pos++
	}
	for lo = c.pos; c.pos < len(c.iter) && c.iter[c.pos] == it; c.pos++ {
	}
	return lo, c.pos
}

// execElem builds one tree per loop iteration by n's template. A
// constructor whose trees are only serialized (Op.Ref, MarkByRef) writes
// each as XML into the transient container's slab and ends it as one
// KindXML row (writeXML); any other builds rows, a node content item as
// a shallow copy of its subtree (buildRows).
func (e *Exec) execElem(n *ElemConstruct, in []*Table, ref bool) (*Table, error) {
	tr := e.Transient
	if tr == nil {
		return nil, fmt.Errorf("ralg: element construction without a transient container")
	}
	loop := in[0].Ints("iter")
	// one cursor per input after the loop, in template order, an
	// attribute part's items cast to strings up front
	curs, k := make([]elemCursor, len(in)), 1
	for _, t := range n.Template {
		for _, a := range t.Attrs {
			for range a.Parts {
				curs[k], k = elemCursor{iter: in[k].Ints("iter"), item: e.cast(FunStringOf, in[k].Col("item"))}, k+1
			}
		}
		if t.Kind == TokPart {
			curs[k], k = elemCursor{iter: in[k].Ints("iter"), item: in[k].Col("item")}, k+1
		}
	}
	tc := e.uniformVec(xqt.KNode, len(loop))
	before, room, written, slab := tr.Len(), cap(tr.Size), len(tr.XML), cap(tr.XML)
	build := e.buildRows
	if ref {
		build = e.writeXML
	}
	if err := build(n, loop, curs, tc); err != nil {
		return nil, err
	}
	e.Stats.TransientRows += int64(tr.Len() - before)
	e.Stats.XMLBytes += int64(len(tr.XML) - written)
	if room > 0 && cap(tr.Size) != room || slab > 0 && cap(tr.XML) != slab {
		e.Stats.TransientRegrows++
	}
	// one element per iteration, in loop order: the loop's iter column is shared
	return tableOf([]string{"iter", "item"}, *in[0].Col("iter"), tc), nil
}

// reserve makes room for rows more rows and attrs more attribute rows in
// the transient container, the first constructor to build anything for
// what the whole statement built last time, so no later one moves a
// column. The container is the one row store the arena does not hand
// out: what Reserve is about to add is charged, and refused, like a column.
func (e *Exec) reserve(b *store.Builder, rows, attrs int) {
	tr := e.Transient
	if cap(tr.Size) == 0 && rows > 0 {
		rows = max(rows, e.SizeHint)
	}
	e.charge(outRegion, int64(max(tr.Len()+rows-cap(tr.Size), 0))*store.RowBytes+
		int64(max(len(tr.AttrOwner)+attrs-cap(tr.AttrOwner), 0))*store.AttrBytes)
	b.Reserve(rows, attrs)
}

// buildRows builds each tree as rows of the transient container, token
// by token.
func (e *Exec) buildRows(n *ElemConstruct, loop []int64, curs []elemCursor, tc ItemVec) error {
	// each name interned once: a tag at its template index, the attribute
	// names after them in order; room for a row per element and per node
	// content item (text nodes and copied subtrees grow the columns, and
	// a copy is charged as it does)
	na := len(n.Template)
	for _, t := range n.Template {
		na += len(t.Attrs)
	}
	ids, rows, k := dirty[int32](e, scratchRegion, na)[:len(n.Template)], 0, 1
	for i, t := range n.Template {
		if t.Kind == TokStart {
			ids[i], rows = e.Transient.Names.ID(t.Tag), rows+len(loop)
		}
		for _, a := range t.Attrs {
			ids, k = append(ids, e.Transient.Names.ID(a.Attr)), k+a.Parts
		}
		if t.Kind == TokPart {
			for c, j := curs[k].item, 0; j < c.Len(); j++ {
				if c.KindAt(j) == xqt.KNode {
					rows++
				}
			}
			k++
		}
	}
	b := store.NewContainerBuilder(e.Transient)
	e.reserve(b, rows, (len(ids)-len(n.Template))*len(loop))
	c := elemContent{out: rowSink{e, b}}
	for built, it := range loop {
		if built&1023 == 1023 && e.stopRequested() {
			return e.stopErr()
		}
		k, ai := 1, len(n.Template)
		for i := range n.Template {
			switch t := &n.Template[i]; t.Kind {
			case TokStart:
				if pre := b.StartElemID(ids[i]); i == 0 {
					tc.Cont[built], tc.I[built] = e.Transient.ID, int64(pre)
				}
				c.saw = false
				for _, a := range t.Attrs {
					b.AttrID(ids[ai], attrValue(curs, &k, it, a.Parts))
					ai++
				}
			case TokEnd:
				b.End()
				c.saw = true // the element is content of its parent
			default:
				lo, hi := curs[k].at(it)
				if err := c.part(e, curs[k].item, lo, hi, n.Template[i+1].Kind != TokPart); err != nil {
					return err
				}
				k++
			}
		}
	}
	return nil
}

// writeXML writes each tree as XML into the transient container's slab,
// by the template compiled to markup, and ends it as one KindXML row.
// Content goes through the serializer that writes final output, so the
// bytes are the ones serializing the same tree's rows gives. The slab is
// sized like the rows, and its growth charged as each tree ends.
func (e *Exec) writeXML(n *ElemConstruct, loop []int64, curs []elemCursor, tc ItemVec) error {
	b := store.NewContainerBuilder(e.Transient)
	e.reserve(b, len(loop), 0)
	if cap(e.Transient.XML) == 0 && len(loop) > 0 {
		e.charge(outRegion, int64(e.SlabHint))
		b.ReserveXML(e.SlabHint)
	}
	x := &xmlSink{s: b.XMLSerializer(), prog: compileXML(n.Template)}
	c, room := elemContent{out: x}, cap(e.Transient.XML)
	for built, it := range loop {
		if built&1023 == 1023 && e.stopRequested() {
			return e.stopErr()
		}
		k := 1
		for i := range x.prog {
			switch st := x.step(i); st.hole {
			case TokStart:
				x.s.Attr(st.name, attrValue(curs, &k, it, st.parts))
			case TokPart:
				if st.state != stateEither {
					c.saw = st.state == stateFull
				}
				lo, hi := curs[k].at(it)
				if err := c.part(e, curs[k].item, lo, hi, st.flush); err != nil {
					return err
				}
				k++
			}
		}
		tc.Cont[built], tc.I[built] = e.Transient.ID, int64(b.XML(x.s))
		if grown := cap(e.Transient.XML) - room; grown != 0 {
			e.charge(outRegion, int64(grown))
			room += grown
		}
	}
	return nil
}

// attrValue is an attribute's value in iteration it, its parts read
// from cursor *k on: the items of each part joined with spaces, the
// parts concatenated.
func attrValue(curs []elemCursor, k *int, it int64, parts int) string {
	val := ""
	for range parts {
		// Join and += return a lone string as it is: the common
		// single-part single-item value is passed through, not copied
		lo, hi := curs[*k].at(it)
		val, *k = val+strings.Join(curs[*k].item.S[lo:hi], " "), *k+1
	}
	return val
}

// elemContent adds an element's content, item by item, to a sink: rows
// of the transient container (rowSink) or XML (xmlSink). pend is the
// innermost open element's pending text: a lone atom is passed through
// as it is, a run of atoms is joined in buf. A node, a start or an end
// ends a run, so it is written where it ends; atoms of one part are
// joined with a space, adjacent parts' directly (XQuery §3.7.1.3). saw
// is whether that element has content yet, sp whether an atom of the
// current part came before.
type elemContent struct {
	out     contentSink
	pend    string
	buf     []byte
	saw, sp bool
}

// contentSink takes an element's content items, in order.
type contentSink interface {
	attr(name, val string)
	hasAttr(name string) bool
	text(s string) // "" is no text
	node(src *store.Container, pre int32)
}

// part adds the items lo..hi of vec, one content part, and writes the
// run of atoms it ends with when flush (the next token is no part).
func (c *elemContent) part(e *Exec, vec *ItemVec, lo, hi int, flush bool) error {
	for ; lo < hi; lo++ {
		switch vec.KindAt(lo) {
		case xqt.KNode:
			c.flush()
			c.out.node(e.Pool.Get(vec.Cont[lo]), int32(vec.I[lo]))
			c.saw = true
		case xqt.KAttr:
			src, row := e.Pool.Get(vec.Cont[lo]), vec.I[lo]
			name := src.Names.Name(src.AttrName[row])
			if c.saw {
				return xqerr.Newf("XQTY0024", "attribute node after content in element constructor")
			} else if c.out.hasAttr(name) {
				return xqerr.Newf("XQDY0025", "duplicate attribute %s in element constructor", name)
			}
			c.out.attr(name, src.AttrVal[row])
		default:
			switch s := vec.At(lo).AsString(); {
			case c.pend == "" && len(c.buf) == 0:
				c.pend, c.saw = s, c.saw || s != ""
			case len(c.buf) == 0:
				c.buf = append(c.buf, c.pend...)
				fallthrough
			default:
				if c.sp {
					c.buf = append(c.buf, ' ')
				}
				c.buf = append(c.buf, s...)
			}
			c.sp = true
		}
	}
	if c.sp = false; flush {
		c.flush()
	}
	return nil
}

// flush writes the pending text.
func (c *elemContent) flush() {
	if len(c.buf) > 0 {
		c.pend, c.buf = string(c.buf), c.buf[:0]
	}
	c.out.text(c.pend)
	c.pend = ""
}

// rowSink adds content as rows of the transient container.
type rowSink struct {
	e *Exec
	b *store.Builder
}

func (r rowSink) attr(name, val string)                { r.b.Attr(name, val) }
func (r rowSink) hasAttr(name string) bool             { return r.b.HasAttr(name) }
func (r rowSink) text(s string)                        { r.b.Text(s) }
func (r rowSink) node(src *store.Container, pre int32) { r.e.copyNode(r.b, src, pre) }

// copyNode copies the subtree of node into b's open element, a document
// node's children for a document node, counts the copied rows and
// charges the columns' growth.
func (e *Exec) copyNode(b *store.Builder, src *store.Container, node int32) {
	at, room := e.Transient.Len(), cap(e.Transient.Size)
	if src.Kind[node] != store.KindDoc {
		b.CopyTree(src, node)
	} else {
		for p, end := node+1, node+src.Size[node]; p <= end; p += src.Size[p] + 1 {
			b.CopyTree(src, p)
		}
	}
	e.Stats.CopiedRows += int64(e.Transient.Len() - at)
	e.charge(outRegion, int64(cap(e.Transient.Size)-room)*store.RowBytes)
}

// xmlStep is one step of a template compiled to markup (compileXML):
// write the markup, then fill the hole after it. The template says, for
// most elements, whether one has content — one that holds a nested
// element has, one that ends right after its start has none — so the
// markup is static; only a content part leaves it to run time, and the
// markup after a part has a second form (bare, else "") for when the
// start tag the part was in is still bare: it opens with the '>' a
// nested start then needs, or ends the element as <a/>, not with its
// close tag.
type xmlStep struct {
	mark, bare string
	// state is the innermost element's at the hole: its start tag still
	// bare (stateOpen), with content (stateFull), or as the part before
	// left it (stateEither)
	state uint8
	// hole is TokStart for an attribute (name, its value's parts),
	// TokPart for a content part (names: its element's attributes; flush:
	// no part follows) and TokEnd for none, the last step
	hole  TokKind
	name  string
	parts int
	names []string
	flush bool
}

const (
	stateFull uint8 = iota // also: no element open yet
	stateOpen
	stateEither
)

// compileXML compiles a template to the steps that write it as XML.
func compileXML(tpl []CtorTok) []xmlStep {
	var (
		steps      []xmlStep
		st         xmlStep
		mark, bare []byte     // the step's markup in both forms
		tags       []string   // the open elements' tags
		names      [][]string // and attribute names
		state      = stateFull
	)
	write := func(s ...string) {
		for _, s := range s {
			mark, bare = append(mark, s...), append(bare, s...)
		}
	}
	emit := func(hole TokKind) {
		st.mark, st.state, st.hole = string(mark), state, hole
		if string(bare) != st.mark {
			st.bare = string(bare)
		}
		steps, st, mark, bare = append(steps, st), xmlStep{}, mark[:0], bare[:0]
	}
	for i, t := range tpl {
		switch t.Kind {
		case TokStart:
			switch state {
			case stateOpen:
				write(">")
			case stateEither:
				bare = append(bare, '>')
			}
			write("<", t.Tag)
			tags, names, state = append(tags, t.Tag), append(names, nil), stateOpen
			for _, a := range t.Attrs {
				names[len(names)-1] = append(names[len(names)-1], a.Attr)
				write(" ")
				st.name, st.parts = a.Attr, a.Parts
				emit(TokStart)
			}
		case TokEnd:
			tag := tags[len(tags)-1]
			switch state {
			case stateOpen:
				write("/>")
			case stateFull:
				write("</", tag, ">")
			case stateEither:
				bare = append(bare, "/>"...)
				mark = append(append(append(mark, "</"...), tag...), '>')
			}
			tags, names, state = tags[:len(tags)-1], names[:len(names)-1], stateFull
		default:
			st.names, st.flush = names[len(names)-1], tpl[i+1].Kind != TokPart
			emit(TokPart)
			if state == stateOpen {
				state = stateEither
			}
		}
	}
	emit(TokEnd)
	return steps
}

// xmlSink runs the steps of a compiled template and takes their content
// parts' items as XML, through the serializer final output uses.
type xmlSink struct {
	s     *store.Serializer
	prog  []xmlStep
	at    int      // the step running
	bare  bool     // the innermost start tag still lacks its '>'
	added []string // attribute names content added to the innermost element
}

// step writes the markup of step i and returns it, its hole to fill.
func (x *xmlSink) step(i int) *xmlStep {
	st := &x.prog[i]
	if x.bare && st.bare != "" {
		x.s.String(st.bare)
	} else {
		x.s.String(st.mark)
	}
	x.at = i
	switch st.state {
	case stateOpen:
		x.bare = true
		if len(x.added) > 0 {
			x.added = x.added[:0]
		}
	case stateFull:
		x.bare = false
	}
	return st
}

// content ends the innermost start tag ahead of its first content.
func (x *xmlSink) content() {
	if x.bare {
		x.s.String(">")
		x.bare = false
	}
}

func (x *xmlSink) attr(name, val string) {
	x.s.String(" ")
	x.s.Attr(name, val)
	x.added = append(x.added, name)
}

func (x *xmlSink) hasAttr(name string) bool {
	return slices.Contains(x.prog[x.at].names, name) || slices.Contains(x.added, name)
}

func (x *xmlSink) text(s string) {
	if s != "" {
		x.content()
		x.s.Text(s)
	}
}

// node writes a content node; a document node without children is none.
func (x *xmlSink) node(src *store.Container, pre int32) {
	if src.Kind[pre] != store.KindDoc || src.Size[pre] > 0 {
		x.content()
		x.s.Node(src, pre)
	}
}
