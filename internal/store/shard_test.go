package store

import (
	"fmt"
	"strings"
	"testing"
)

func shardDocXML(i int) string {
	return fmt.Sprintf(`<doc n="%d"><v>%d</v></doc>`, i, i)
}

func buildTestSharded(t *testing.T, name string, k, ndocs int) (*ShardedPool, []string) {
	t.Helper()
	names := make([]string, ndocs)
	for i := range names {
		names[i] = fmt.Sprintf("d%02d.xml", i)
	}
	xml := make(map[string]string, ndocs)
	for i, n := range names {
		xml[n] = shardDocXML(i)
	}
	sp, err := BuildSharded(name, k, names, func(d string, b *Builder) error {
		return ShredInto(b, d, strings.NewReader(xml[d]), false)
	})
	if err != nil {
		t.Fatal(err)
	}
	return sp, names
}

// TestShardOfDeterministic: the document-to-shard hash is stable, in
// range, and spreads a modest corpus over every shard.
func TestShardOfDeterministic(t *testing.T) {
	hit := make([]int, 4)
	for i := 0; i < 100; i++ {
		name := fmt.Sprintf("doc-%d.xml", i)
		s := ShardOf(name, 4)
		if s != ShardOf(name, 4) {
			t.Fatalf("ShardOf(%q) not deterministic", name)
		}
		if s < 0 || s >= 4 {
			t.Fatalf("ShardOf(%q, 4) = %d out of range", name, s)
		}
		hit[s]++
	}
	for s, n := range hit {
		if n == 0 {
			t.Errorf("shard %d received no documents out of 100", s)
		}
	}
	if ShardOf("anything", 1) != 0 || ShardOf("anything", 0) != 0 {
		t.Error("k <= 1 must map to shard 0")
	}
}

// TestBuildSharded: per-shard builders produce valid multi-fragment
// containers whose fragments line up with the hash partitioning, and
// duplicate document names are rejected.
func TestBuildSharded(t *testing.T) {
	const k, ndocs = 3, 10
	sp, names := buildTestSharded(t, "corpus", k, ndocs)
	if sp.K() != k || sp.DocCount() != ndocs {
		t.Fatalf("K=%d DocCount=%d, want %d/%d", sp.K(), sp.DocCount(), k, ndocs)
	}
	perShard := make([]int, k)
	for _, n := range names {
		perShard[ShardOf(n, k)]++
	}
	for s, c := range sp.Shards() {
		if err := c.Validate(); err != nil {
			t.Fatalf("shard %d invalid: %v", s, err)
		}
		if got := len(c.FragRoots()); got != perShard[s] {
			t.Errorf("shard %d holds %d fragments, want %d", s, got, perShard[s])
		}
	}
	if _, err := BuildSharded("dup", 2, []string{"a.xml", "a.xml"}, nil); err == nil ||
		!strings.Contains(err.Error(), "duplicate document") {
		t.Errorf("duplicate names: err = %v", err)
	}
	if _, err := BuildSharded("bad", 2, []string{"a.xml"}, func(d string, b *Builder) error {
		return ShredInto(b, d, strings.NewReader("<unclosed>"), false)
	}); err == nil {
		t.Error("malformed document must fail the build")
	}
}

// TestShardedRoots: once registered, Roots enumerates (container id,
// fragment root) in shard-major document order and DocNames matches.
func TestShardedRoots(t *testing.T) {
	const k = 3
	sp, names := buildTestSharded(t, "corpus", k, 7)
	p := NewPool()
	p.RegisterCollection(sp)
	if got, ok := p.Collection("corpus"); !ok || got != sp {
		t.Fatal("collection not registered")
	}
	var want []string
	for s := 0; s < k; s++ {
		for _, n := range names {
			if ShardOf(n, k) == s {
				want = append(want, n)
			}
		}
	}
	if fmt.Sprint(sp.DocNames()) != fmt.Sprint(want) {
		t.Fatalf("DocNames = %v, want %v", sp.DocNames(), want)
	}
	conts, pres := sp.Roots()
	if len(conts) != 7 {
		t.Fatalf("%d roots, want 7", len(conts))
	}
	for i := 1; i < len(conts); i++ {
		if conts[i] < conts[i-1] || (conts[i] == conts[i-1] && pres[i] <= pres[i-1]) {
			t.Fatalf("roots not in (container, pre) order at %d: %v %v", i, conts, pres)
		}
	}
	for i := range conts {
		c := p.Get(conts[i])
		if c.Kind[pres[i]] != KindDoc {
			t.Errorf("root %d is %v, want document node", i, c.Kind[pres[i]])
		}
	}
}

// TestWithDocCopyOnWrite: WithDoc leaves the receiver's shards untouched
// (snapshot safety), shares the unchanged shards, and rejects duplicate
// names.
func TestWithDocCopyOnWrite(t *testing.T) {
	const k = 2
	sp, _ := buildTestSharded(t, "corpus", k, 4)
	target := ShardOf("zz.xml", k)
	oldShard := sp.Shards()[target]
	oldLen := oldShard.Len()
	oldNames := oldShard.Names.Len()

	nsp, err := sp.WithDoc("zz.xml", func(b *Builder) error {
		return ShredInto(b, "zz.xml", strings.NewReader(`<zz><fresh/></zz>`), false)
	})
	if err != nil {
		t.Fatal(err)
	}
	if oldShard.Len() != oldLen || oldShard.Names.Len() != oldNames {
		t.Fatal("WithDoc mutated the original shard container")
	}
	for s := 0; s < k; s++ {
		if s == target {
			if nsp.Shards()[s] == sp.Shards()[s] {
				t.Fatal("target shard was not copied")
			}
			if nsp.Shards()[s].Len() <= oldLen {
				t.Fatal("new shard is missing the appended fragment")
			}
		} else if nsp.Shards()[s] != sp.Shards()[s] {
			t.Fatal("unchanged shard was not shared")
		}
	}
	if nsp.DocCount() != 5 || sp.DocCount() != 4 {
		t.Fatalf("doc counts: new %d old %d, want 5/4", nsp.DocCount(), sp.DocCount())
	}
	if _, err := nsp.WithDoc("zz.xml", nil); err == nil ||
		!strings.Contains(err.Error(), "already in collection") {
		t.Errorf("duplicate WithDoc: err = %v", err)
	}
}

// TestCloneRejectsIndirection: containers with shallow-copy ref columns
// cannot be cloned (their self-references are container-id-bound).
func TestCloneRejectsIndirection(t *testing.T) {
	c := NewContainer("") // transient: only it holds copies
	b := NewContainerBuilder(c)
	b.StartDoc()
	b.StartElem("a")
	b.End()
	b.End()
	src, err := Shred("src.xml", strings.NewReader("<s><t/></s>"), false)
	if err != nil {
		t.Fatal(err)
	}
	b2 := NewContainerBuilder(c)
	b2.CopyTree(src, 0)
	defer func() {
		if recover() == nil {
			t.Error("Clone of an indirection container must panic")
		}
	}()
	c.Clone()
}
