package core

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"weak"

	"mxq/internal/store"
)

// TestSupersededShardVersionsAreReclaimed: AddToCollection replaces one
// shard copy-on-write, and the live pool lets go of the version it
// replaced. A Result and a pool snapshot taken before fifty adds still
// serialize the collection as it was, byte for byte, after the adds and
// a collection cycle; once both are dropped, the only shard containers
// left reachable are the ones the collection currently holds.
func TestSupersededShardVersionsAreReclaimed(t *testing.T) {
	const shards = 3
	e := New(DefaultConfig())
	docs := make([]CollectionDoc, 8)
	for i := range docs {
		docs[i] = CollectionDoc{Name: fmt.Sprintf("d%d.xml", i), R: strings.NewReader(fmt.Sprintf(`<d n="%d"><t>doc &amp; %d</t></d>`, i, i))}
	}
	if err := e.LoadCollection("c", shards, docs); err != nil {
		t.Fatal(err)
	}
	const q = `collection("c")/d`
	res, err := e.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	want := res.String()
	snap := e.Pool().Snapshot()
	sp0, _ := snap.Collection("c")
	serializeSnap := func() string {
		var b bytes.Buffer
		conts, pres := sp0.Roots()
		for i := range conts {
			if err := store.Serialize(&b, snap.Get(conts[i]), pres[i]); err != nil {
				t.Fatal(err)
			}
		}
		return b.String()
	}
	if serializeSnap() != want {
		t.Fatalf("snapshot serializes %q, the query %q", serializeSnap(), want)
	}

	// every shard version the collection ever held, weakly
	var versions []weak.Pointer[store.Container]
	seen := map[weak.Pointer[store.Container]]bool{}
	note := func() {
		sp, _ := e.Pool().Collection("c")
		for _, c := range sp.Shards() {
			if w := weak.Make(c); !seen[w] {
				seen[w] = true
				versions = append(versions, w)
			}
		}
	}
	note()
	for i := 0; i < 50; i++ {
		name := fmt.Sprintf("add%d.xml", i)
		if err := e.AddToCollection("c", name, strings.NewReader(`<d><t>added</t></d>`)); err != nil {
			t.Fatal(err)
		}
		note()
	}
	if len(versions) != shards+50 {
		t.Fatalf("%d shard versions, want %d", len(versions), shards+50)
	}
	runtime.GC()
	if got := res.String(); got != want {
		t.Fatalf("pre-add result changed:\n got %q\nwant %q", got, want)
	}
	if got := serializeSnap(); got != want {
		t.Fatalf("pre-add snapshot changed:\n got %q\nwant %q", got, want)
	}
	if n, err := e.QueryString(`count(collection("c"))`); err != nil || n != fmt.Sprint(len(docs)+50) {
		t.Fatalf("count after adds = %q, %v", n, err)
	}

	live := func() (n int) {
		runtime.GC()
		runtime.GC() // a version freed by the first cycle may have held another's last reference
		for _, w := range versions {
			if w.Value() != nil {
				n++
			}
		}
		return n
	}
	if n := live(); n < 2*shards {
		t.Fatalf("%d versions alive while the pre-add result and snapshot pin the first %d and the pool the current %d", n, shards, shards)
	}
	runtime.KeepAlive(res)
	runtime.KeepAlive(snap)
	res, snap, sp0 = nil, nil, nil
	if n := live(); n != shards {
		t.Fatalf("%d shard versions reachable after the last old reference died, want the current %d", n, shards)
	}
	runtime.KeepAlive(e)
}
