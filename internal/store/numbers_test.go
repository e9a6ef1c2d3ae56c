package store

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"mxq/internal/xqt"
)

var sinkString string

// The string value of an element with one text below it is that text,
// not a copy; with several it is built in one allocation.
func TestStringValueAllocs(t *testing.T) {
	c, err := Shred("s.xml", strings.NewReader(`<r><one>12.5</one><many>1<b>2</b>3</many></r>`), false)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		pre    int32
		want   string
		allocs float64
	}{{2, "12.5", 0}, {4, "123", 1}, {1, "12.5123", 1}} {
		if got := c.StringValue(tc.pre); got != tc.want {
			t.Fatalf("StringValue(%d) = %q, want %q", tc.pre, got, tc.want)
		}
		if n := testing.AllocsPerRun(100, func() { sinkString = c.StringValue(tc.pre) }); n != tc.allocs {
			t.Errorf("StringValue(%d) = %q: %.0f allocations, want %.0f", tc.pre, tc.want, n, tc.allocs)
		}
	}
}

const numbersDoc = `<r><a> 1e3 </a><a>INF</a><a>-INF</a><a>NaN</a><a>-0</a><a>abc</a><a/>` +
	`<a>1<b>2</b></a><a><!-- 7 --><b>8</b></a><!--9--><a x=" 4 " y="-0" z="NaN" w="q"/></r>`

// sameBits compares numbers by their bits, so -0 and NaN are checked too.
func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// checkNumbers compares the number kernels with xqt.ParseDouble of the
// string values, over every node and every attribute of c, twice: once
// filling a memo, once reading it.
func checkNumbers(t *testing.T, label string, c *Container) {
	t.Helper()
	pres := make([]int64, c.Len())
	for i := range pres {
		pres[i] = int64(i)
	}
	rows := make([]int64, len(c.AttrVal))
	for i := range rows {
		rows[i] = int64(i)
	}
	for pass := range 2 {
		nums, attrs := make([]float64, len(pres)), make([]float64, len(rows))
		c.NumberValues(pres, nums)
		c.AttrNumbers(rows, attrs)
		for p, f := range nums {
			if want := xqt.ParseDouble(c.StringValue(int32(p))); !sameBits(f, want) {
				t.Errorf("%s pass %d: node %d (%q) reads %v, want %v", label, pass, p, c.StringValue(int32(p)), f, want)
			}
		}
		for r, f := range attrs {
			if want := xqt.ParseDouble(c.AttrVal[r]); !sameBits(f, want) {
				t.Errorf("%s pass %d: attribute %d (%q) reads %v, want %v", label, pass, r, c.AttrVal[r], f, want)
			}
		}
	}
}

// The number kernels give exactly what parsing the string values gives:
// on a document with a memo, on one without, and on a transient copy,
// whose texts read the memo of the document they came from.
func TestNumberValuesAreParsedStringValues(t *testing.T) {
	doc, err := Shred("n.xml", strings.NewReader(numbersDoc), false)
	if err != nil {
		t.Fatal(err)
	}
	checkNumbers(t, "no memo", doc)
	pool := NewPool()
	pool.Register(doc)
	doc.BuildIndexes()
	tr := NewContainer("")
	pool.Register(tr)
	b := NewContainerBuilder(tr)
	b.StartElem("c")
	b.CopyTree(doc, 1)
	b.End()
	checkNumbers(t, "transient copy", tr)
	if doc.nums.texts[0].Load() == nil {
		t.Fatal("reading the copied texts left the document's memo unfilled")
	}
	checkNumbers(t, "document", doc)
}

// A shard copy shares the pages of its source's memo that the copied
// values fill completely, and starts the last one afresh: two versions
// extended from one source read their own values there.
func TestNumberMemoCopyOnWrite(t *testing.T) {
	const n = 1<<memoPageBits + 100 // a full page and a part of one
	var doc strings.Builder
	doc.WriteString("<d>")
	for i := range n {
		fmt.Fprintf(&doc, "<v>%d</v>", i)
	}
	doc.WriteString("</d>")
	sp, err := BuildSharded("c", 1, []string{"d0"}, func(d string, b *Builder) error {
		return ShredInto(b, d, strings.NewReader(doc.String()), false)
	})
	if err != nil {
		t.Fatal(err)
	}
	sp.BuildIndexes()
	src := sp.Shards()[0]
	all := func(c *Container) []float64 {
		var pres []int64
		for p := range c.Len() {
			if c.Kind[p] == KindText {
				pres = append(pres, int64(p))
			}
		}
		out := make([]float64, len(pres))
		c.NumberValues(pres, out)
		return out
	}
	all(src) // fill both pages
	versions := make([]*Container, 2)
	for i := range versions {
		v, err := sp.WithDoc(fmt.Sprintf("x%d", i), func(b *Builder) error {
			return ShredInto(b, "x", strings.NewReader(fmt.Sprintf("<d><v>%d</v></d>", 100000*(i+1))), false)
		})
		if err != nil {
			t.Fatal(err)
		}
		v.BuildIndexes()
		versions[i] = v.Shards()[0]
	}
	for i, c := range versions {
		if c.nums.texts[0].Load() != src.nums.texts[0].Load() || c.nums.texts[1].Load() == src.nums.texts[1].Load() {
			t.Fatalf("version %d: shares the full page %v, the last one %v; want true, false", i, c.nums.texts[0].Load() == src.nums.texts[0].Load(), c.nums.texts[1].Load() == src.nums.texts[1].Load())
		}
		got := all(c)
		if len(got) != n+1 || got[0] != 0 || got[n-1] != n-1 || got[n] != float64(100000*(i+1)) {
			t.Fatalf("version %d reads %d values, %v %v %v", i, len(got), got[0], got[n-1], got[n])
		}
	}
	if got := all(src); len(got) != n || got[n-1] != n-1 {
		t.Fatalf("the source reads %d values, the last %v", len(got), got[len(got)-1])
	}
}
