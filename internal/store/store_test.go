package store

import (
	"strings"
	"testing"
)

// paperDoc is the XML fragment of Figure 4 in the paper.
const paperDoc = `<a><b><c><d/><e/></c></b><f><g/><h><i/><j/></h></f></a>`

func shredPaperDoc(t *testing.T) *Container {
	t.Helper()
	c, err := Shred("paper.xml", strings.NewReader(paperDoc), false)
	if err != nil {
		t.Fatalf("Shred: %v", err)
	}
	return c
}

func TestShredPaperEncoding(t *testing.T) {
	c := shredPaperDoc(t)
	// pre 0 is the document node; the paper's table starts at element a.
	want := []struct {
		name  string
		size  int32
		level int32
		post  int32
	}{
		{"a", 9, 0, 9}, {"b", 3, 1, 3}, {"c", 2, 2, 2}, {"d", 0, 3, 0},
		{"e", 0, 3, 1}, {"f", 4, 1, 8}, {"g", 0, 2, 4}, {"h", 2, 2, 7},
		{"i", 0, 3, 5}, {"j", 0, 3, 6},
	}
	if c.Len() != len(want)+1 {
		t.Fatalf("container has %d rows, want %d", c.Len(), len(want)+1)
	}
	for i, w := range want {
		pre := int32(i + 1)
		if got := c.NameOf(pre); got != w.name {
			t.Errorf("pre %d: name %q, want %q", pre, got, w.name)
		}
		if c.Size[pre] != w.size {
			t.Errorf("%s: size %d, want %d", w.name, c.Size[pre], w.size)
		}
		if c.Level[pre]-1 != w.level { // document node adds one level
			t.Errorf("%s: level %d, want %d", w.name, c.Level[pre]-1, w.level)
		}
		// post = pre + size - level; the document node shifts pre and
		// level by one, so the paper's postorder is recovered as
		// (pre-1) + size - (level-1) = pre + size - level.
		if got := pre + c.Size[pre] - c.Level[pre]; got != w.post {
			t.Errorf("%s: post %d, want %d", w.name, got, w.post)
		}
	}
	if err := c.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

// TestValidateRejectsNonNodes: every row must be a node and every node's
// children must tile its region; a hand-broken paper document fails each
// way.
func TestValidateRejectsNonNodes(t *testing.T) {
	for _, tc := range []struct {
		name  string
		spoil func(c *Container)
		want  string
	}{
		{"negative level", func(c *Container) { c.Level[4], c.Parent[4] = -1, -1 }, "row 4 "},
		{"child overruns parent", func(c *Container) { c.Size[2] = 2 }, "children of 2 overrun"},
		{"kind out of range", func(c *Container) { c.Kind[4] = KindPI + 1 }, "row 4 "},
	} {
		c := shredPaperDoc(t)
		if err := c.Validate(); err != nil {
			t.Fatalf("%s: intact document: %v", tc.name, err)
		}
		tc.spoil(c)
		if err := c.Validate(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Validate = %v, want an error containing %q", tc.name, err, tc.want)
		}
	}
}

func TestSerializeRoundTrip(t *testing.T) {
	docs := []string{
		paperDoc,
		`<r>hello <b>bold</b> world</r>`,
		`<r a="1" b="x&amp;y"><child c="2"/>text&lt;tag&gt;</r>`,
		`<r><!--note--><?pi data?><x/></r>`,
	}
	for _, doc := range docs {
		c, err := Shred("d", strings.NewReader(doc), true)
		if err != nil {
			t.Fatalf("Shred(%q): %v", doc, err)
		}
		var sb strings.Builder
		if err := Serialize(&sb, c, 0); err != nil {
			t.Fatalf("Serialize: %v", err)
		}
		if sb.String() != doc {
			t.Errorf("round trip:\n got %q\nwant %q", sb.String(), doc)
		}
	}
}

func TestStringValue(t *testing.T) {
	c, err := Shred("d", strings.NewReader(`<r>one<b>two<c>three</c></b><!--x-->four</r>`), true)
	if err != nil {
		t.Fatal(err)
	}
	if got := c.StringValue(1); got != "onetwothreefour" {
		t.Errorf("StringValue(r) = %q", got)
	}
	// pre 3 is <b>
	if got := c.NameOf(3); got != "b" {
		t.Fatalf("pre 3 is %q, want b", got)
	}
	if got := c.StringValue(3); got != "twothree" {
		t.Errorf("StringValue(b) = %q", got)
	}
}

func TestAttrs(t *testing.T) {
	c, err := Shred("d", strings.NewReader(`<r id="r0"><p id="p1" x="1"/><p id="p2"/></r>`), false)
	if err != nil {
		t.Fatal(err)
	}
	if _, lo, hi := c.Attrs(1); hi-lo != 1 {
		t.Errorf("r has %d attrs, want 1", hi-lo)
	}
	ac, lo, hi := c.Attrs(2)
	got := map[string]string{}
	for row := lo; row < hi; row++ {
		got[ac.Names.Name(ac.AttrName[row])] = ac.AttrVal[row]
	}
	if len(got) != 2 || got["id"] != "p1" || got["x"] != "1" {
		t.Errorf("attributes of p1: %v", got)
	}
}

func TestElemIndex(t *testing.T) {
	c := shredPaperDoc(t)
	c.BuildIndexes()
	pres, ok := c.ElemIndex("c")
	if !ok || len(pres) != 1 || pres[0] != 3 {
		t.Errorf("ElemIndex(c) = %v, %v", pres, ok)
	}
	pres, ok = c.ElemIndex("nosuch")
	if !ok || pres != nil {
		t.Errorf("ElemIndex(nosuch) = %v, %v", pres, ok)
	}
}

func TestCopyTreeShallow(t *testing.T) {
	pool := NewPool()
	src := shredPaperDoc(t)
	pool.Register(src)
	dst := NewContainer("")
	pool.Register(dst)
	b := NewContainerBuilder(dst)
	root := b.StartElem("copy")
	// copy subtree <f>...
	cp := b.CopyTree(src, 6)
	b.End()
	if _, err := b.Done(); err != nil {
		t.Fatal(err)
	}
	if dst.Size[root] != src.Size[6]+1 {
		t.Errorf("copy size %d, want %d", dst.Size[root], src.Size[6]+1)
	}
	if got := dst.NameOf(cp); got != "f" {
		t.Errorf("copied root name %q, want f", got)
	}
	if got := dst.NameOf(cp + 2); got != "h" {
		t.Errorf("copied child name %q, want h", got)
	}
	var sb strings.Builder
	if err := Serialize(&sb, dst, root); err != nil {
		t.Fatal(err)
	}
	if want := `<copy><f><g/><h><i/><j/></h></f></copy>`; sb.String() != want {
		t.Errorf("serialized copy = %s, want %s", sb.String(), want)
	}
	if err := dst.Validate(); err != nil {
		t.Fatalf("Validate after copy: %v", err)
	}
}

func TestCopyOfCopyStaysOneHop(t *testing.T) {
	pool := NewPool()
	src := shredPaperDoc(t)
	pool.Register(src)
	mid := NewContainer("")
	pool.Register(mid)
	b := NewContainerBuilder(mid)
	b.StartElem("m")
	b.CopyTree(src, 2) // <b>...
	b.End()
	dst := NewContainer("")
	pool.Register(dst)
	b2 := NewContainerBuilder(dst)
	b2.StartElem("d")
	cp := b2.CopyTree(mid, 1)
	b2.End()
	// the copy-of-copy must reference the original container directly
	if dst.RefCont[cp] != src.ID {
		t.Errorf("RefCont = %d, want %d (original)", dst.RefCont[cp], src.ID)
	}
	var sb strings.Builder
	Serialize(&sb, dst, 0)
	if want := `<d><b><c><d/><e/></c></b></d>`; sb.String() != want {
		t.Errorf("got %s want %s", sb.String(), want)
	}
}

func TestFragRoots(t *testing.T) {
	c := NewContainer("")
	b := NewContainerBuilder(c)
	b.StartElem("x")
	b.End()
	b.StartElem("y")
	b.Text("t")
	b.End()
	roots := c.FragRoots()
	if len(roots) != 2 || roots[0] != 0 || roots[1] != 1 {
		t.Errorf("FragRoots = %v", roots)
	}
	if c.Frag[2] != 1 {
		t.Errorf("Frag of text = %d, want 1", c.Frag[2])
	}
}

func TestBuilderAttrAfterContentPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	b := NewBuilder("d")
	b.StartElem("a")
	b.Text("x")
	b.Attr("late", "1")
}

func TestShredErrors(t *testing.T) {
	if _, err := Shred("bad", strings.NewReader(`<a><b></a>`), false); err == nil {
		t.Error("mismatched tags: want error")
	}
	if _, err := Shred("empty", strings.NewReader(``), false); err == nil {
		t.Error("empty doc: want error")
	}
}

func TestNamesDict(t *testing.T) {
	d := NewNames()
	a := d.ID("alpha")
	b := d.ID("beta")
	if a == b {
		t.Fatal("distinct names share id")
	}
	if d.ID("alpha") != a {
		t.Error("re-interning changed id")
	}
	if d.Name(b) != "beta" {
		t.Error("Name lookup failed")
	}
	if _, ok := d.Lookup("gamma"); ok {
		t.Error("Lookup of absent name succeeded")
	}
	if d.Len() != 2 {
		t.Errorf("Len = %d", d.Len())
	}
}

func TestPool(t *testing.T) {
	p := NewPool()
	c1 := p.Register(NewContainer("one.xml"))
	c2 := p.Register(NewContainer("two.xml"))
	if c1.ID == c2.ID {
		t.Fatal("duplicate container ids")
	}
	if got, ok := p.ByName("two.xml"); !ok || got != c2 {
		t.Error("ByName failed")
	}
	if p.Get(c1.ID) != c1 {
		t.Error("Get failed")
	}
}
