package store

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

// buildRandom constructs a random container from a seed, returning it.
func buildRandom(seed int64, maxNodes int) *Container {
	rng := rand.New(rand.NewSource(seed))
	b := NewBuilder("rand.xml")
	b.StartDoc()
	names := []string{"alpha", "beta", "gamma"}
	b.StartElem(names[rng.Intn(len(names))])
	if rng.Intn(2) == 0 {
		b.Attr("id", fmt.Sprintf("n%d", rng.Intn(100)))
	}
	open := 1
	for i := 0; i < maxNodes; i++ {
		switch rng.Intn(8) {
		case 0, 1, 2:
			b.StartElem(names[rng.Intn(len(names))])
			if rng.Intn(3) == 0 {
				b.Attr("k", fmt.Sprintf("%d", rng.Intn(9)))
			}
			open++
		case 3, 4:
			b.Text(fmt.Sprintf("t%d", rng.Intn(50)))
		case 5:
			b.Comment("c")
		default:
			if open > 1 {
				b.End()
				open--
			}
		}
	}
	for ; open > 0; open-- {
		b.End()
	}
	b.End() // doc
	c, err := b.Done()
	if err != nil {
		panic(err)
	}
	return c
}

// TestQuickRoundTrip: serialize → shred → serialize is the identity on
// random documents, and every shred output validates.
func TestQuickRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		c := buildRandom(seed, 80)
		if err := c.Validate(); err != nil {
			t.Logf("seed %d: built container invalid: %v", seed, err)
			return false
		}
		var s1 strings.Builder
		if err := Serialize(&s1, c, 0); err != nil {
			return false
		}
		c2, err := Shred("r.xml", strings.NewReader(s1.String()), true)
		if err != nil {
			t.Logf("seed %d: reshred failed: %v", seed, err)
			return false
		}
		if err := c2.Validate(); err != nil {
			t.Logf("seed %d: reshred invalid: %v", seed, err)
			return false
		}
		var s2 strings.Builder
		if err := Serialize(&s2, c2, 0); err != nil {
			return false
		}
		if s1.String() != s2.String() {
			t.Logf("seed %d:\n a: %s\n b: %s", seed, s1.String(), s2.String())
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestQuickCopyTreeFaithful: a shallow copy of any subtree serializes
// identically to the original subtree.
func TestQuickCopyTreeFaithful(t *testing.T) {
	f := func(seed int64, pick uint16) bool {
		pool := NewPool()
		src := buildRandom(seed, 60)
		pool.Register(src)
		// pick a random element subtree
		var elems []int32
		for p := int32(0); p < int32(src.Len()); p++ {
			if src.Kind[p] == KindElem {
				elems = append(elems, p)
			}
		}
		if len(elems) == 0 {
			return true
		}
		pre := elems[int(pick)%len(elems)]
		dst := NewContainer("")
		pool.Register(dst)
		b := NewContainerBuilder(dst)
		b.StartElem("wrap")
		cp := b.CopyTree(src, pre)
		b.End()
		if _, err := b.Done(); err != nil {
			return false
		}
		if err := dst.Validate(); err != nil {
			t.Logf("seed %d pre %d: copy invalid: %v", seed, pre, err)
			return false
		}
		var a, c strings.Builder
		Serialize(&a, src, pre)
		Serialize(&c, dst, cp)
		if a.String() != c.String() {
			t.Logf("seed %d pre %d:\n orig %s\n copy %s", seed, pre, a.String(), c.String())
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestQuickPostOrderIdentity: post = pre + size - level is a bijection
// between the non-document nodes and the postorder ranks 0..n-2 (the
// document node always comes last in postorder) — the paper's §2
// identity.
func TestQuickPostOrderIdentity(t *testing.T) {
	f := func(seed int64) bool {
		c := buildRandom(seed, 80)
		n := int32(c.Len())
		if c.Post(0) != n-1 {
			return false // document node is last in postorder
		}
		seen := make(map[int32]bool)
		for p := int32(1); p < n; p++ {
			post := c.Post(p)
			if post < 0 || post >= n-1 || seen[post] {
				return false
			}
			seen[post] = true
		}
		return len(seen) == int(n)-1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// copyTreeRef is the per-row CopyTree that the column-at-a-time one
// replaced: ten appends per node. The property test below holds the new
// kernel to it column for column.
func copyTreeRef(b *Builder, src *Container, pre int32) int32 {
	c := b.c
	if c.RefCont == nil {
		n := len(c.Size)
		c.RefCont, c.RefPre = make([]int32, n), make([]int32, n)
		for i := 0; i < n; i++ {
			c.RefCont[i], c.RefPre[i] = c.ID, int32(i)
		}
	}
	base := int32(len(c.Size))
	var parent, frag int32 = -1, base
	baseLevel := int32(0)
	if len(b.stack) > 0 {
		parent = b.stack[len(b.stack)-1]
		baseLevel = c.Level[parent] + 1
		frag = c.Frag[parent]
	}
	for p, end := pre, pre+src.Size[pre]; p <= end; p++ {
		c.Size = append(c.Size, src.Size[p])
		c.Frag = append(c.Frag, frag)
		c.NameID = append(c.NameID, -1)
		c.Value = append(c.Value, -1)
		c.attrStart = append(c.attrStart, int32(len(c.AttrOwner)))
		c.Level = append(c.Level, baseLevel+src.Level[p]-src.Level[pre])
		c.Kind = append(c.Kind, src.Kind[p])
		if p == pre {
			c.Parent = append(c.Parent, parent)
		} else {
			c.Parent = append(c.Parent, base+(src.Parent[p]-pre))
		}
		rc, rp := src.ID, p
		if src.RefCont != nil {
			rc, rp = src.RefCont[p], src.RefPre[p]
		}
		c.RefCont = append(c.RefCont, rc)
		c.RefPre = append(c.RefPre, rp)
	}
	return base
}

// TestQuickCopyTreeMatchesPerRowLoop: the same random sequence of
// constructor events — elements opened and closed, text, attributes,
// subtrees copied at top level and under open elements — fed to the
// reference loop and to CopyTree (with and without a Reserve up front)
// yields identical containers, for plain sources and sources that are
// themselves shallow copies.
func TestQuickCopyTreeMatchesPerRowLoop(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		pool := NewPool()
		plain := buildRandom(seed, 60)
		pool.Register(plain)
		indirect := NewContainer("") // a source with RefCont: copies of plain plus own rows
		pool.Register(indirect)
		ib := NewContainerBuilder(indirect)
		ib.StartElem("own")
		ib.Text("t")
		ib.CopyTree(plain, 1)
		ib.End()
		sources := []*Container{plain, indirect}

		var dsts [3]*Container
		var bs [3]*Builder
		for i := range bs {
			dsts[i] = NewContainer("")
			pool.Register(dsts[i])
			dsts[i].ID = dsts[0].ID // one identity, so self-references compare equal
			bs[i] = NewContainerBuilder(dsts[i])
		}
		n := 1 + rng.Intn(500)
		bs[2].Reserve(n, n/4)
		open := 0
		for step := 0; step < 40; step++ {
			switch ev := rng.Intn(6); {
			case ev == 0:
				for _, b := range bs {
					b.StartElem("e")
				}
				open++
			case ev == 1 && open > 0:
				for _, b := range bs {
					b.End()
				}
				open--
			case ev == 2 && open > 0:
				for _, b := range bs {
					b.Text("x")
				}
			default:
				src := sources[rng.Intn(len(sources))]
				pre := int32(rng.Intn(src.Len()))
				if src.Kind[pre] == KindDoc {
					pre++
				}
				want := copyTreeRef(bs[0], src, pre)
				if got1, got2 := bs[1].CopyTree(src, pre), bs[2].CopyTree(src, pre); got1 != want || got2 != want {
					t.Logf("seed %d: copy root %d/%d, want %d", seed, got1, got2, want)
					return false
				}
			}
		}
		for ; open > 0; open-- {
			for _, b := range bs {
				b.End()
			}
		}
		ref := dsts[0]
		for i, d := range dsts[1:] {
			for name, eq := range map[string]bool{
				"size": slices.Equal(d.Size, ref.Size), "level": slices.Equal(d.Level, ref.Level),
				"kind": slices.Equal(d.Kind, ref.Kind), "parent": slices.Equal(d.Parent, ref.Parent),
				"frag": slices.Equal(d.Frag, ref.Frag), "nameid": slices.Equal(d.NameID, ref.NameID),
				"value": slices.Equal(d.Value, ref.Value), "attrStart": slices.Equal(d.attrStart, ref.attrStart),
				"refcont": slices.Equal(d.RefCont, ref.RefCont), "refpre": slices.Equal(d.RefPre, ref.RefPre),
			} {
				if !eq {
					t.Logf("seed %d: builder %d: column %s differs from the per-row loop", seed, i+1, name)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}
