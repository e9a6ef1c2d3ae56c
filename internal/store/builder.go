package store

import (
	"fmt"
	"slices"
)

// Builder constructs container rows incrementally in document order. It is
// used by the shredder, by the XMark document generator, and by the element
// construction operator of the relational engine (each constructed element
// is one new fragment in the query's transient container).
//
// The zero Builder is not usable; create one with NewBuilder or
// NewContainerBuilder.
type Builder struct {
	c     *Container
	stack []int32 // open element pres
	// pending attribute buffers for the innermost open element
}

// NewContainer returns an empty container with an empty name dictionary,
// not yet registered with a pool. A container without a name is
// transient: it holds the nodes one query constructs, and carries the
// RefCont/RefPre indirection from its first row (a built row names
// itself, a copied one its source).
func NewContainer(name string) *Container {
	c := &Container{Name: name, Names: NewNames(), attrStart: []int32{0}}
	if name == "" {
		c.RefCont, c.RefPre = []int32{}, []int32{}
	}
	return c
}

// NewBuilder returns a Builder appending to a fresh container.
func NewBuilder(name string) *Builder {
	return &Builder{c: NewContainer(name)}
}

// NewContainerBuilder returns a Builder appending to an existing container
// (used to add fragments to a transient container).
func NewContainerBuilder(c *Container) *Builder {
	return &Builder{c: c}
}

// Container returns the container under construction.
func (b *Builder) Container() *Container { return b.c }

func (b *Builder) appendRow(kind NodeKind, nameID, value int32) int32 {
	c := b.c
	pre := int32(len(c.Size))
	var parent, frag int32 = -1, pre
	level := int32(0)
	if len(b.stack) > 0 {
		parent = b.stack[len(b.stack)-1]
		level = c.Level[parent] + 1
		frag = c.Frag[parent]
	}
	c.Size = append(c.Size, 0)
	c.Level = append(c.Level, level)
	c.Kind = append(c.Kind, kind)
	c.Parent = append(c.Parent, parent)
	c.Frag = append(c.Frag, frag)
	c.NameID = append(c.NameID, nameID)
	c.Value = append(c.Value, value)
	c.attrStart = append(c.attrStart, int32(len(c.AttrOwner)))
	if c.RefCont != nil {
		c.RefCont = append(c.RefCont, c.ID)
		c.RefPre = append(c.RefPre, pre)
	}
	return pre
}

// StartDoc opens a document root node. It must be the first event and can
// occur only once per fragment.
func (b *Builder) StartDoc() int32 {
	pre := b.appendRow(KindDoc, -1, -1)
	b.stack = append(b.stack, pre)
	return pre
}

// StartElem opens an element node and returns its pre.
func (b *Builder) StartElem(name string) int32 { return b.StartElemID(b.c.Names.ID(name)) }

// StartElemID is StartElem for a name the caller interned in the
// container's dictionary already (one lookup per constructor, not one
// per constructed element).
func (b *Builder) StartElemID(nameID int32) int32 {
	pre := b.appendRow(KindElem, nameID, -1)
	b.stack = append(b.stack, pre)
	return pre
}

// Attr attaches an attribute to the innermost open element. It must be
// called before any content is added to that element.
func (b *Builder) Attr(name, val string) { b.AttrID(b.c.Names.ID(name), val) }

// AttrID is Attr for a name the caller interned in the container's
// dictionary already, as StartElemID is StartElem.
func (b *Builder) AttrID(nameID int32, val string) {
	c := b.c
	owner := b.stack[len(b.stack)-1]
	if int32(len(c.Size)) != owner+1 {
		panic(fmt.Sprintf("store: attribute %q added after content of element %d", c.Names.Name(nameID), owner))
	}
	c.AttrOwner = append(c.AttrOwner, owner)
	c.AttrName = append(c.AttrName, nameID)
	c.AttrVal = append(c.AttrVal, val)
	c.attrStart[len(c.attrStart)-1] = int32(len(c.AttrOwner))
}

// HasAttr reports whether the innermost open element has an attribute
// called name already.
func (b *Builder) HasAttr(name string) bool {
	c := b.c
	return slices.Contains(c.AttrName[c.attrStart[b.stack[len(b.stack)-1]]:], c.Names.ID(name))
}

// Text appends a text node. Empty strings are skipped (no empty text
// nodes exist in the data model).
func (b *Builder) Text(s string) int32 {
	if s == "" {
		return -1
	}
	c := b.c
	c.Texts = append(c.Texts, s)
	return b.appendRow(KindText, -1, int32(len(c.Texts)-1))
}

// Comment appends a comment node.
func (b *Builder) Comment(s string) int32 {
	c := b.c
	c.Texts = append(c.Texts, s)
	return b.appendRow(KindComment, -1, int32(len(c.Texts)-1))
}

// PI appends a processing-instruction node with the given target and data.
func (b *Builder) PI(target, data string) int32 {
	c := b.c
	c.Texts = append(c.Texts, data)
	return b.appendRow(KindPI, c.Names.ID(target), int32(len(c.Texts)-1))
}

// End closes the innermost open element (or document node), fixing its
// size property.
func (b *Builder) End() int32 {
	pre := b.stack[len(b.stack)-1]
	b.stack = b.stack[:len(b.stack)-1]
	b.c.Size[pre] = int32(len(b.c.Size)) - pre - 1
	return pre
}

// extend lengthens col by n rows the caller fills (amortized growth).
func extend[T any](col []T, n int) []T { return slices.Grow(col, n)[:len(col)+n] }

// appendFill appends n copies of v to col.
func appendFill[T any](col []T, n int, v T) []T {
	col = extend(col, n)
	tail := col[len(col)-n:]
	for i := range tail {
		tail[i] = v
	}
	return col
}

// appendShifted appends src[i]+delta for every row of src to col.
func appendShifted(col, src []int32, delta int32) []int32 {
	col = extend(col, len(src))
	tail := col[len(col)-len(src):]
	for i, v := range src {
		tail[i] = v + delta
	}
	return col
}

// RowBytes is what one structural row costs across the ten columns
// Reserve grows: nine int32 and the kind byte. AttrBytes is one attribute
// row: owner, name and the value's string header.
const (
	RowBytes  = 37
	AttrBytes = 24
)

// Reserve makes room for n more structural rows and attrs more attribute
// rows, so the appends of a caller that knows its output size never
// regrow the columns.
func (b *Builder) Reserve(n, attrs int) {
	c := b.c
	c.AttrOwner, c.AttrName, c.AttrVal = slices.Grow(c.AttrOwner, attrs), slices.Grow(c.AttrName, attrs), slices.Grow(c.AttrVal, attrs)
	c.Size, c.Level, c.Kind, c.Parent = slices.Grow(c.Size, n), slices.Grow(c.Level, n), slices.Grow(c.Kind, n), slices.Grow(c.Parent, n)
	c.Frag, c.NameID, c.Value = slices.Grow(c.Frag, n), slices.Grow(c.NameID, n), slices.Grow(c.Value, n)
	c.attrStart = slices.Grow(c.attrStart, n)
	if c.RefCont != nil {
		c.RefCont, c.RefPre = slices.Grow(c.RefCont, n), slices.Grow(c.RefPre, n)
	}
}

// CopyTree appends a shallow copy of the subtree rooted at pre of src as
// content of the innermost open element (or as a new fragment when nothing
// is open). Structural rows are copied; properties stay in src and are
// reached via the cont/ref indirection (paper §5.1). It returns the pre of
// the copy root in the destination container, which must be transient.
// Each of the ten columns grows once and is filled in a loop of its own:
// size and kind copies, frag, name, value and attribute offset constants,
// level and parent the source's plus a delta, the indirection the
// source's own (chains stay one hop deep) or (src, pre..pre+size). A
// KindXML row has no tree to copy (a constructor that writes XML is only
// serialized, so its output is never copied), and a KindXML row is only
// ever a fragment root, so every copied row is a node.
func (b *Builder) CopyTree(src *Container, pre int32) int32 {
	c := b.c
	if c.RefCont == nil {
		panic("store: CopyTree into a container that is not transient")
	} else if src.Kind[pre] == KindXML {
		panic("store: CopyTree of an element written as XML")
	}
	rows := int(src.Size[pre]) + 1
	base := int32(len(c.Size))
	var parent, frag int32 = -1, base
	baseLevel := int32(0)
	if len(b.stack) > 0 {
		parent = b.stack[len(b.stack)-1]
		baseLevel = c.Level[parent] + 1
		frag = c.Frag[parent]
	}
	lo, hi := int(pre), int(pre)+rows
	c.Size = append(c.Size, src.Size[lo:hi]...)
	c.Kind = append(c.Kind, src.Kind[lo:hi]...)
	c.Frag, c.NameID, c.Value = appendFill(c.Frag, rows, frag), appendFill(c.NameID, rows, -1), appendFill(c.Value, rows, -1)
	c.attrStart = appendFill(c.attrStart, rows, int32(len(c.AttrOwner)))
	c.Level = appendShifted(c.Level, src.Level[lo:hi], baseLevel-src.Level[pre])
	c.Parent = appendShifted(c.Parent, src.Parent[lo:hi], base-pre)
	c.Parent[base] = parent
	if src.RefCont != nil {
		c.RefCont, c.RefPre = append(c.RefCont, src.RefCont[lo:hi]...), append(c.RefPre, src.RefPre[lo:hi]...)
	} else {
		c.RefCont = appendFill(c.RefCont, rows, src.ID)
		c.RefPre = extend(c.RefPre, rows)
		for i := range rows {
			c.RefPre[int(base)+i] = pre + int32(i)
		}
	}
	return base
}

// ReserveXML makes room for n more bytes in the slab, so the
// XMLSerializer of a caller that knows its output size never regrows it.
func (b *Builder) ReserveXML(n int) { b.c.XML = slices.Grow(b.c.XML, n) }

// XMLSerializer returns a serializer that appends to the slab of b's
// container, which must be transient, and never flushes: the writer of
// a constructor whose trees are only serialized. XML ends each tree.
func (b *Builder) XMLSerializer() *Serializer { return &Serializer{buf: b.c.XML} }

// XML ends the tree s (from XMLSerializer) wrote since the last one as
// one KindXML row, a new fragment, and returns its pre.
func (b *Builder) XML(s *Serializer) int32 {
	c := b.c
	c.XML, c.xmlEnd = s.buf, append(c.xmlEnd, len(s.buf))
	return b.appendRow(KindXML, -1, int32(len(c.xmlEnd)-1))
}

// Done finalizes the container (all elements must be closed) and verifies
// basic invariants.
func (b *Builder) Done() (*Container, error) {
	if len(b.stack) != 0 {
		return nil, fmt.Errorf("store: %d unclosed elements", len(b.stack))
	}
	return b.c, nil
}
