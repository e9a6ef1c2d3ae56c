package store_test

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"mxq/internal/store"
	"mxq/internal/xmark"
)

// failAfter accepts n bytes, then fails every write.
type failAfter struct {
	n      int
	writes int
}

var errSink = errors.New("sink closed")

func (f *failAfter) Write(p []byte) (int, error) {
	f.writes++
	if f.n -= len(p); f.n < 0 {
		return 0, errSink
	}
	return len(p), nil
}

// TestSerializerEscapesFlushesAndStops: the three escapes of text and of
// attribute values, the 32 KB hand-offs to the writer, and a write error
// that surfaces from Flush and ends the walk.
func TestSerializerEscapesFlushesAndStops(t *testing.T) {
	c, err := store.Shred("d", strings.NewReader(`<r a="x&amp;&lt;&gt;&quot;'y"><!--c--><?p q?>t&amp;&lt;&gt;"'u<e/></r>`), false)
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	if err := store.Serialize(&b, c, 0); err != nil {
		t.Fatal(err)
	}
	if want := `<r a="x&amp;&lt;>&quot;'y"><!--c--><?p q?>t&amp;&lt;&gt;"'u<e/></r>`; b.String() != want {
		t.Fatalf("serialized %s\nwant       %s", b.String(), want)
	}

	big := xmark.NewStoreContainer("auction.xml", 0.01, 1)
	b.Reset()
	if err := store.Serialize(&b, big, 0); err != nil {
		t.Fatal(err)
	}
	sink := &failAfter{n: b.Len()}
	if err := store.Serialize(sink, big, 0); err != nil {
		t.Fatal(err)
	}
	if pieces := b.Len() / (32 << 10); sink.writes < pieces/2 || sink.writes > pieces+1 {
		t.Fatalf("%d bytes reached the writer in %d writes, want about %d", b.Len(), sink.writes, pieces)
	}
	sink = &failAfter{n: 100 << 10}
	if err := store.Serialize(sink, big, 0); !errors.Is(err, errSink) {
		t.Fatalf("write error lost: %v", err)
	}
	if sink.writes > 5 {
		t.Fatalf("the walk went on for %d writes after the error", sink.writes)
	}
}

// The escapes find their bytes wherever they are: at every offset of a
// text longer than the eight bytes the search reads at once, next to
// multi-byte characters, several in one word and none at all.
func TestEscapeFindsEveryByte(t *testing.T) {
	text := strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;")
	attr := strings.NewReplacer("&", "&amp;", "<", "&lt;", `"`, "&quot;")
	var ins []string
	for n := range 20 {
		for p := range n {
			for _, c := range []string{"&", "<", ">", `"`, "é"} {
				ins = append(ins, strings.Repeat("a", p)+c+strings.Repeat("é", (n-p)/2))
			}
		}
		ins = append(ins, strings.Repeat("é<>", n), strings.Repeat("x", n))
	}
	for _, in := range ins {
		var b strings.Builder
		s := store.NewSerializer(&b)
		s.Text(in)
		s.Attr("a", in)
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		if want := text.Replace(in) + `a="` + attr.Replace(in) + `"`; b.String() != want {
			t.Fatalf("%q: %q, want %q", in, b.String(), want)
		}
	}
}

// BenchmarkSerialize serializes the people subtree of an XMark 0.04
// document (the xmark-join document): elements, attributes and text in
// the benchmark's mix.
func BenchmarkSerialize(b *testing.B) {
	c := xmark.NewStoreContainer("auction.xml", 0.04, 42)
	c.BuildIndexes()
	people, _ := c.ElemIndex("people")
	var n countWriter
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n = 0
		if err := store.Serialize(&n, c, people[0]); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(n))
}

type countWriter int64

func (w *countWriter) Write(p []byte) (int, error) { *w += countWriter(len(p)); return len(p), nil }
