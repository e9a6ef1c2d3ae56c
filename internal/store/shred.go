package store

import (
	"encoding/xml"
	"fmt"
	"io"
	"strings"
)

// Shred parses the XML document read from r into a fresh container using
// the pre|size|level encoding. The container starts with a document root
// node at pre 0. Whitespace-only text between elements is preserved only
// when keepWS is true (the XMark benchmark data carries no significant
// inter-element whitespace, so the engine shreds with keepWS=false by
// default, like MonetDB/XQuery's shredder in its standard configuration).
func Shred(name string, r io.Reader, keepWS bool) (*Container, error) {
	b := NewBuilder(name)
	if err := ShredInto(b, name, r, keepWS); err != nil {
		return nil, err
	}
	c, err := b.Done()
	if err != nil {
		return nil, err
	}
	if c.Len() < 2 {
		return nil, fmt.Errorf("store: shred %s: document has no content", name)
	}
	return c, nil
}

// ShredInto parses one XML document from r and appends it as a new
// document fragment (StartDoc .. End) to b's container. It is the
// building block of multi-document shard containers (ShardedPool), where
// one container holds many document fragments.
func ShredInto(b *Builder, name string, r io.Reader, keepWS bool) error {
	start := b.Container().Len()
	b.StartDoc()
	dec := xml.NewDecoder(r)
	depth := 0
	for {
		tok, err := dec.Token()
		if err == io.EOF {
			break
		}
		if err != nil {
			return fmt.Errorf("store: shred %s: %w", name, err)
		}
		switch t := tok.(type) {
		case xml.StartElement:
			b.StartElem(qname(t.Name))
			for _, a := range t.Attr {
				if a.Name.Space == "xmlns" || a.Name.Local == "xmlns" {
					continue
				}
				b.Attr(qname(a.Name), a.Value)
			}
			depth++
		case xml.EndElement:
			b.End()
			depth--
		case xml.CharData:
			s := string(t)
			if !keepWS && strings.TrimSpace(s) == "" {
				continue
			}
			if depth > 0 {
				b.Text(s)
			}
		case xml.Comment:
			b.Comment(string(t))
		case xml.ProcInst:
			b.PI(t.Target, string(t.Inst))
		}
	}
	if depth != 0 {
		return fmt.Errorf("store: shred %s: %d unclosed elements", name, depth)
	}
	b.End() // close document node
	if b.Container().Len()-start < 2 {
		return fmt.Errorf("store: shred %s: document has no content", name)
	}
	return nil
}

func qname(n xml.Name) string {
	if n.Space == "" {
		return n.Local
	}
	return n.Space + ":" + n.Local
}

// Serialize writes the subtree rooted at pre as XML text. Document nodes
// serialize their children. The writer is not flushed or closed.
func Serialize(w io.Writer, c *Container, pre int32) error {
	s := Serializer{w: w, buf: make([]byte, 0, min(32<<10, 32*(int(c.Size[pre])+1)))} // a small subtree's buffer grows at most once
	s.Node(c, pre)
	return s.Flush()
}

// Serializer writes a sequence of nodes and strings as XML text through
// one buffer it owns: everything is appended to it (escapes inline, an
// untouched string in one append) and handed to the writer in 32 KB
// pieces and at Flush. The first write error sticks, ends the walk —
// what is written after it is dropped — and is what Flush returns.
type Serializer struct {
	w   io.Writer
	buf []byte
	err error
}

// NewSerializer returns a serializer writing to w.
func NewSerializer(w io.Writer) *Serializer { return &Serializer{w: w} }

// Flush writes what is buffered and returns the first error any write met.
func (s *Serializer) Flush() error {
	if s.err == nil && len(s.buf) > 0 {
		_, s.err = s.w.Write(s.buf)
	}
	s.buf = s.buf[:0]
	return s.err
}

// Err returns the first error a write met, without flushing.
func (s *Serializer) Err() error { return s.err }

// room flushes a full buffer and reports whether the serializer still writes.
func (s *Serializer) room() bool {
	if len(s.buf) >= 32<<10 {
		s.Flush()
	}
	return s.err == nil
}

// String writes str as it is.
func (s *Serializer) String(str string) {
	if s.room() {
		s.buf = append(s.buf, str...)
	}
}

// Node writes the subtree rooted at pre of c.
func (s *Serializer) Node(c *Container, pre int32) {
	if !s.room() {
		return
	}
	switch c.Kind[pre] {
	case KindDoc:
		s.children(c, pre, "")
	case KindElem:
		name := c.NameOf(pre)
		s.buf = append(append(s.buf, '<'), name...)
		ac, lo, hi := c.Attrs(pre)
		for i := lo; i < hi; i++ {
			s.buf = append(append(append(s.buf, ' '), ac.Names.Name(ac.AttrName[i])...), '=', '"')
			s.escape(ac.AttrVal[i], '"', "&quot;")
			s.buf = append(s.buf, '"')
		}
		if s.children(c, pre, ">") {
			s.buf = append(append(append(s.buf, '<', '/'), name...), '>')
		} else {
			s.buf = append(s.buf, '/', '>')
		}
	case KindText:
		s.escape(c.TextOf(pre), '>', "&gt;")
	case KindComment:
		s.buf = append(append(append(s.buf, "<!--"...), c.TextOf(pre)...), "-->"...)
	case KindPI:
		s.buf = append(append(append(s.buf, '<', '?'), c.NameOf(pre)...), ' ')
		s.buf = append(append(s.buf, c.TextOf(pre)...), '?', '>')
	}
}

// children writes the children of pre, open ahead of the first, and
// reports whether there was one.
func (s *Serializer) children(c *Container, pre int32, open string) bool {
	end := pre + c.Size[pre]
	if end == pre {
		return false
	}
	s.buf = append(s.buf, open...)
	for p := pre + 1; p <= end; p += c.Size[p] + 1 {
		s.Node(c, p)
	}
	return true
}

// escape appends str with & and < replaced by their entities, and the
// byte third (> in text, " in attribute values) by ent.
func (s *Serializer) escape(str string, third byte, ent string) {
	last := 0
	for i := 0; i < len(str); i++ {
		esc := ent
		switch str[i] {
		case '&':
			esc = "&amp;"
		case '<':
			esc = "&lt;"
		case third:
		default:
			continue
		}
		s.buf = append(append(s.buf, str[last:i]...), esc...)
		last = i + 1
	}
	s.buf = append(s.buf, str[last:]...)
}
