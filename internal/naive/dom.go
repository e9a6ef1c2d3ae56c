// Package naive is a straightforward DOM-based XQuery interpreter over the
// same AST the relational engine compiles. It plays two roles in the
// reproduction:
//
//   - the differential-testing oracle: engine results must match naive
//     results on the same documents and queries, and
//
//   - the comparator baseline of the performance study, standing in for
//     the non-relational systems of the paper's Table 1 and Figure 16
//     (eXist, Galax, X-Hive, BerkeleyDB XML), which evaluate joins by
//     nested loops and path steps by per-iteration tree walks.
package naive

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"mxq/internal/store"
	"mxq/internal/xqt"
)

// Node is a DOM node.
type Node struct {
	Kind     store.NodeKind
	Name     string // element name / PI target
	Text     string // text, comment, PI content
	Attrs    []Attr
	Children []*Node
	Parent   *Node
	Ord      int64 // global document order
}

// Attr is one attribute of an element.
type Attr struct {
	Name, Val string
}

// Doc wraps a document root node.
type Doc struct {
	Root *Node // KindDoc node
	Name string
}

// Builder assembles DOM trees; it implements the same event interface as
// the store shredder so generators can target both.
type Builder struct {
	root  *Node
	stack []*Node
	ord   *int64
}

// NewBuilder returns a DOM builder. ord is the document-order counter to
// draw from (shared across documents and constructed nodes of one
// interpreter).
func NewBuilder(ord *int64) *Builder {
	return &Builder{ord: ord}
}

func (b *Builder) add(n *Node) *Node {
	*b.ord++
	n.Ord = *b.ord
	if len(b.stack) > 0 {
		parent := b.stack[len(b.stack)-1]
		n.Parent = parent
		parent.Children = append(parent.Children, n)
	} else if b.root == nil {
		b.root = n
	}
	return n
}

// StartDoc opens a document node.
func (b *Builder) StartDoc() {
	n := b.add(&Node{Kind: store.KindDoc})
	b.stack = append(b.stack, n)
}

// StartElem opens an element.
func (b *Builder) StartElem(name string) {
	n := b.add(&Node{Kind: store.KindElem, Name: name})
	b.stack = append(b.stack, n)
}

// Attr adds an attribute to the innermost open element.
func (b *Builder) Attr(name, val string) {
	top := b.stack[len(b.stack)-1]
	top.Attrs = append(top.Attrs, Attr{Name: name, Val: val})
}

// Text appends a text node.
func (b *Builder) Text(s string) {
	if s == "" {
		return
	}
	b.add(&Node{Kind: store.KindText, Text: s})
}

// Comment appends a comment node.
func (b *Builder) Comment(s string) { b.add(&Node{Kind: store.KindComment, Text: s}) }

// PI appends a processing instruction.
func (b *Builder) PI(target, data string) {
	b.add(&Node{Kind: store.KindPI, Name: target, Text: data})
}

// End closes the innermost element or document node.
func (b *Builder) End() { b.stack = b.stack[:len(b.stack)-1] }

// Root returns the built root node.
func (b *Builder) Root() *Node { return b.root }

// FromContainer converts a shredded container into a DOM tree.
func FromContainer(c *store.Container, ord *int64) *Node {
	b := NewBuilder(ord)
	var build func(pre int32)
	build = func(pre int32) {
		switch c.Kind[pre] {
		case store.KindDoc:
			b.StartDoc()
		case store.KindElem:
			b.StartElem(c.NameOf(pre))
			ac, lo, hi := c.Attrs(pre)
			for i := lo; i < hi; i++ {
				b.Attr(ac.Names.Name(ac.AttrName[i]), ac.AttrVal[i])
			}
		case store.KindText:
			b.Text(c.TextOf(pre))
			return
		case store.KindComment:
			b.Comment(c.TextOf(pre))
			return
		case store.KindPI:
			b.PI(c.NameOf(pre), c.TextOf(pre))
			return
		}
		end := pre + c.Size[pre]
		for p := pre + 1; p <= end; p += c.Size[p] + 1 {
			build(p)
		}
		b.End()
	}
	build(0)
	return b.Root()
}

// StringValue is the XPath string value of n.
func (n *Node) StringValue() string {
	switch n.Kind {
	case store.KindText, store.KindComment, store.KindPI:
		return n.Text
	}
	var sb strings.Builder
	var walk func(*Node)
	walk = func(m *Node) {
		if m.Kind == store.KindText {
			sb.WriteString(m.Text)
		}
		for _, c := range m.Children {
			walk(c)
		}
	}
	walk(n)
	return sb.String()
}

// Serialize writes n as XML text in the same format as store.Serialize.
func Serialize(w io.Writer, n *Node) error {
	s := &domSerializer{w: w}
	s.node(n)
	return s.err
}

type domSerializer struct {
	w   io.Writer
	err error
}

func (s *domSerializer) write(str string) {
	if s.err == nil {
		_, s.err = io.WriteString(s.w, str)
	}
}

var textEsc = strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;")
var attrEsc = strings.NewReplacer("&", "&amp;", "<", "&lt;", `"`, "&quot;")

func (s *domSerializer) node(n *Node) {
	switch n.Kind {
	case store.KindDoc:
		for _, c := range n.Children {
			s.node(c)
		}
	case store.KindElem:
		s.write("<")
		s.write(n.Name)
		for _, a := range n.Attrs {
			s.write(" ")
			s.write(a.Name)
			s.write(`="`)
			s.write(attrEsc.Replace(a.Val))
			s.write(`"`)
		}
		if len(n.Children) == 0 {
			s.write("/>")
			return
		}
		s.write(">")
		for _, c := range n.Children {
			s.node(c)
		}
		s.write("</")
		s.write(n.Name)
		s.write(">")
	case store.KindText:
		s.write(textEsc.Replace(n.Text))
	case store.KindComment:
		s.write("<!--")
		s.write(n.Text)
		s.write("-->")
	case store.KindPI:
		s.write("<?")
		s.write(n.Name)
		s.write(" ")
		s.write(n.Text)
		s.write("?>")
	}
}

// Val is one item of a naive-interpreter sequence: an atom (delegated to
// xqt.Item), a node, or an attribute node.
type Val struct {
	Atom  xqt.Item // valid when Node == nil
	Node  *Node    // element/text/comment/PI/document node
	Owner *Node    // attribute owner (attribute nodes)
	AIdx  int      // attribute index within Owner
}

// IsNode reports whether the value is a node or attribute node.
func (v Val) IsNode() bool { return v.Node != nil || v.Owner != nil }

// Atomize returns the typed value of v (untypedAtomic for nodes).
func (v Val) Atomize() xqt.Item {
	switch {
	case v.Node != nil:
		return xqt.Untyped(v.Node.StringValue())
	case v.Owner != nil:
		return xqt.Untyped(v.Owner.Attrs[v.AIdx].Val)
	}
	return v.Atom
}

// orderKey gives the document-order sort key of a node value.
func (v Val) orderKey() (int64, int64) {
	if v.Owner != nil {
		return v.Owner.Ord, int64(v.AIdx) + 1
	}
	return v.Node.Ord, 0
}

// docOrderLess orders node values by document order.
func docOrderLess(a, b Val) bool {
	a1, a2 := a.orderKey()
	b1, b2 := b.orderKey()
	if a1 != b1 {
		return a1 < b1
	}
	return a2 < b2
}

// sortAndDedup sorts node values in document order and removes duplicate
// node identities.
func sortAndDedup(vals []Val) []Val {
	sort.SliceStable(vals, func(i, j int) bool { return docOrderLess(vals[i], vals[j]) })
	out := vals[:0]
	for i, v := range vals {
		if i > 0 {
			p := vals[i-1]
			if p.Node == v.Node && p.Owner == v.Owner && p.AIdx == v.AIdx {
				continue
			}
		}
		out = append(out, v)
	}
	return out
}

// SerializeSeq renders a sequence the way the engine serializes results:
// adjacent atoms separated by a single space, nodes as XML.
func SerializeSeq(w io.Writer, seq []Val) error {
	prevAtom := false
	for _, v := range seq {
		switch {
		case v.Node != nil:
			if err := Serialize(w, v.Node); err != nil {
				return err
			}
			prevAtom = false
		case v.Owner != nil:
			a := v.Owner.Attrs[v.AIdx]
			if _, err := fmt.Fprintf(w, `%s="%s"`, a.Name, attrEsc.Replace(a.Val)); err != nil {
				return err
			}
			prevAtom = false
		default:
			s := v.Atom.AsString()
			if prevAtom {
				s = " " + s
			}
			if _, err := io.WriteString(w, s); err != nil {
				return err
			}
			prevAtom = true
		}
	}
	return nil
}
