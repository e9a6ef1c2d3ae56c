package store

import (
	"encoding/xml"
	"fmt"
	"io"
	"strings"
	"sync"
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
	s := NewSerializer(w)
	s.Node(c, pre)
	return s.Close()
}

// Serializer writes a sequence of nodes and strings as XML text through
// one buffer: everything is appended to it (escapes inline, an untouched
// string in one append) and handed to the writer in 32 KB pieces and at
// Flush. The first write error sticks, ends the walk — what is written
// after it is dropped — and is what Flush returns. The buffer comes from
// a pool and goes back at Close, so a warm serialization grows none. A
// serializer without a writer (Builder.XMLSerializer) appends to a
// transient container's slab and never flushes.
type Serializer struct {
	w   io.Writer
	buf []byte
	err error
	own *[]byte // the pooled slice buf came from
}

// bufs holds the buffers of finished serializations; one grown past
// maxPooled (a text longer than the flush threshold) is left to the GC.
var bufs = sync.Pool{New: func() any { return new([]byte) }}

const (
	maxPooled = 64 << 10
	flushAt   = 32 << 10
)

// NewSerializer returns a serializer writing to w; Close ends it.
func NewSerializer(w io.Writer) *Serializer {
	own := bufs.Get().(*[]byte)
	return &Serializer{w: w, buf: (*own)[:0], own: own}
}

// Flush writes what is buffered and returns the first error any write met.
func (s *Serializer) Flush() error {
	if s.err == nil && len(s.buf) > 0 {
		_, s.err = s.w.Write(s.buf)
	}
	s.buf = s.buf[:0]
	return s.err
}

// Close flushes, hands the buffer back for the next serialization and
// returns Flush's error. The serializer may not be used after it.
func (s *Serializer) Close() error {
	err := s.Flush()
	if cap(s.buf) <= maxPooled {
		*s.own = s.buf
		bufs.Put(s.own)
	}
	s.buf, s.own = nil, nil
	return err
}

// Err returns the first error a write met, without flushing.
func (s *Serializer) Err() error { return s.err }

// room flushes a full buffer and reports whether the serializer still writes.
func (s *Serializer) room() bool {
	if s.w != nil && len(s.buf) >= flushAt {
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

// Text writes str escaped as text content.
func (s *Serializer) Text(str string) {
	if s.room() {
		s.escape(str, '>')
	}
}

// Attr writes name="val", val escaped as an attribute value.
func (s *Serializer) Attr(name, val string) {
	if s.room() {
		s.attr(name, val)
	}
}

// attr is Attr without the flush check. Here and below each append is
// a statement of its own: appending to s.buf in place then stores its
// length only, where a nested append stores the whole slice header, a
// pointer the garbage collector's write barrier must see.
func (s *Serializer) attr(name, val string) {
	s.buf = append(s.buf, name...)
	s.buf = append(s.buf, '=', '"')
	s.escape(val, '"')
	s.buf = append(s.buf, '"')
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
		s.buf = append(s.buf, '<')
		s.buf = append(s.buf, name...)
		ac, lo, hi := c.Attrs(pre)
		for i := lo; i < hi; i++ {
			s.buf = append(s.buf, ' ')
			s.attr(ac.Names.Name(ac.AttrName[i]), ac.AttrVal[i])
		}
		if s.children(c, pre, ">") {
			s.buf = append(s.buf, '<', '/')
			s.buf = append(s.buf, name...)
			s.buf = append(s.buf, '>')
		} else {
			s.buf = append(s.buf, '/', '>')
		}
	case KindText:
		s.escape(c.TextOf(pre), '>')
	case KindComment:
		s.buf = append(s.buf, "<!--"...)
		s.buf = append(s.buf, c.TextOf(pre)...)
		s.buf = append(s.buf, "-->"...)
	case KindPI:
		s.buf = append(s.buf, '<', '?')
		s.buf = append(s.buf, c.NameOf(pre)...)
		s.buf = append(s.buf, ' ')
		s.buf = append(s.buf, c.TextOf(pre)...)
		s.buf = append(s.buf, '?', '>')
	case KindXML:
		// a written element goes into the buffer when it fits what is left
		// of a flush, else after one, and past the buffer when it is larger
		// than a flush: the pooled buffer never grows to hold one
		x := c.XMLOf(pre)
		if s.w != nil && len(s.buf)+len(x) > flushAt {
			if s.Flush() != nil {
				return
			} else if len(x) >= flushAt {
				_, s.err = s.w.Write(x)
				return
			}
		}
		s.buf = append(s.buf, x...)
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
// byte third (> in text, " in attribute values) by its own: the clean
// run before each such byte goes in one copy. The search reads eight
// bytes at a time: a byte of v^(lsb*c) is zero where v holds c, and
// (x-lsb)&^x&msb is not zero exactly when a byte of x is.
func (s *Serializer) escape(str string, third byte) {
	last, i, t := 0, 0, lsb*uint64(third)
	for {
		for ; i+8 <= len(str); i += 8 {
			w := str[i : i+8]
			v := uint64(w[0]) | uint64(w[1])<<8 | uint64(w[2])<<16 | uint64(w[3])<<24 |
				uint64(w[4])<<32 | uint64(w[5])<<40 | uint64(w[6])<<48 | uint64(w[7])<<56
			a, l, x := v^(lsb*'&'), v^(lsb*'<'), v^t
			if ((a-lsb)&^a|(l-lsb)&^l|(x-lsb)&^x)&msb != 0 {
				break
			}
		}
		for ; i < len(str) && str[i] != '&' && str[i] != '<' && str[i] != third; i++ {
		}
		if i == len(str) {
			break
		}
		s.buf = append(s.buf, str[last:i]...)
		s.buf = append(s.buf, entity(str[i])...)
		i++
		last = i
	}
	s.buf = append(s.buf, str[last:]...)
}

const lsb, msb = 0x0101010101010101, 0x8080808080808080

// entity is the escape of one byte of an escape set.
func entity(b byte) string {
	switch b {
	case '&':
		return "&amp;"
	case '<':
		return "&lt;"
	case '>':
		return "&gt;"
	}
	return "&quot;"
}
