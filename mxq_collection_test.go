package mxq_test

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"mxq"
	"mxq/internal/naive"
	"mxq/internal/store"
	"mxq/internal/xmark"
	"mxq/internal/xqt"
)

// collectionQueries is the differential workload over a sharded XMark
// collection: counting, FLWOR iteration, per-document aggregation,
// predicates, and document order across shards.
var collectionQueries = []string{
	`count(collection("xm"))`,
	`count(collection("xm")/site/people/person)`,
	`count(collection("xm")//item)`,
	`for $d in collection("xm") return count($d//item)`,
	`for $p in collection("xm")/site/people/person where $p/@id = "person0" return $p/name/text()`,
	`sum(for $d in collection("xm") return count($d/site/regions//item))`,
	`for $p in collection("xm")//person[1] return $p/name/text()`,
	`count(collection("xm")//open_auction/bidder)`,
	`distinct-values(for $i in collection("xm")//item return string($i/location/text()))`,
	`for $d in collection("xm") return <doc n="{count($d//person)}"/>`,
}

// buildCollectionWorld loads an ndocs XMark corpus as a sharded
// collection into a relational engine and mirrors it — in the relational
// collection's document order — into the naive oracle.
func buildCollectionWorld(t testing.TB, factor float64, ndocs, shards int) (db *mxq.DB, oracle *naive.Interp) {
	t.Helper()
	db = mxq.Open()
	seeds := db.LoadXMarkCollection("xm", ndocs, shards, factor, 7)
	oracle = naive.New()
	order, ok := db.CollectionDocs("xm")
	if !ok {
		t.Fatal("collection xm not registered")
	}
	for _, d := range order {
		oracle.AddCollectionDOM("xm", xmark.NewDOM(factor, seeds[d], oracle.OrdCounter()))
	}
	return db, oracle
}

// TestCollectionDifferential: collection() over an N-document sharded
// corpus must return results byte-identical to the naive oracle holding
// the same documents.
func TestCollectionDifferential(t *testing.T) {
	db, oracle := buildCollectionWorld(t, 0.001, 5, 2)
	for _, q := range collectionQueries {
		want, err := oracle.QueryString(q)
		if err != nil {
			t.Fatalf("oracle %s: %v", q, err)
		}
		got, err := db.QueryString(q)
		if err != nil {
			t.Errorf("%s: %v", q, err)
			continue
		}
		if got != want {
			t.Errorf("%s:\n got  %q\n want %q", q, got, want)
		}
	}
}

// TestCollectionDocOrder pins the documented document-order contract:
// shards are enumerated by ascending container id (bulk load: shard
// order), documents within a shard in insertion order — and the hash
// partitioning is the one store.ShardOf computes.
func TestCollectionDocOrder(t *testing.T) {
	docs := []mxq.Doc{
		mxq.DocString("a.xml", `<d><n>a</n></d>`),
		mxq.DocString("b.xml", `<d><n>b</n></d>`),
		mxq.DocString("c.xml", `<d><n>c</n></d>`),
		mxq.DocString("d.xml", `<d><n>d</n></d>`),
		mxq.DocString("e.xml", `<d><n>e</n></d>`),
	}
	const shards = 3
	db := mxq.Open()
	if err := db.LoadCollection("c", shards, docs...); err != nil {
		t.Fatal(err)
	}
	// shard-major expected order from the public hash
	var want []string
	for s := 0; s < shards; s++ {
		for _, d := range docs {
			if store.ShardOf(d.Name, shards) == s {
				want = append(want, d.Name)
			}
		}
	}
	got, ok := db.CollectionDocs("c")
	if !ok || fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("CollectionDocs = %v, want %v", got, want)
	}
	// collection() enumerates documents in exactly that order
	res, err := db.QueryString(`for $d in collection("c") return $d/d/n/text()`)
	if err != nil {
		t.Fatal(err)
	}
	var wantRes strings.Builder
	for _, d := range want {
		wantRes.WriteString(strings.TrimSuffix(d, ".xml"))
	}
	if res != wantRes.String() {
		t.Fatalf("collection order query = %q, want %q", res, wantRes.String())
	}
}

// TestAddToCollectionSnapshot: AddToCollection is copy-on-write — a
// Result obtained before the add stays valid, new queries see the new
// document, the updated shard's documents move to the end of the
// document order, and duplicate names are rejected.
func TestAddToCollectionSnapshot(t *testing.T) {
	db := mxq.Open()
	if err := db.LoadCollection("c", 2,
		mxq.DocString("a.xml", `<d><n>a</n></d>`),
		mxq.DocString("b.xml", `<d><n>b</n></d>`),
	); err != nil {
		t.Fatal(err)
	}
	before, err := db.Query(`collection("c")/d/n`)
	if err != nil {
		t.Fatal(err)
	}
	if before.Len() != 2 {
		t.Fatalf("before add: %d items, want 2", before.Len())
	}
	if err := db.AddToCollection("c", mxq.DocString("z.xml", `<d><n>z</n></d>`)); err != nil {
		t.Fatal(err)
	}
	// the pre-add result pinned its snapshot: still 2 items, serializable
	if before.Len() != 2 || !strings.Contains(before.String(), "<n>a</n>") {
		t.Fatalf("pre-add result changed after AddToCollection: %q", before.String())
	}
	after, err := db.QueryString(`count(collection("c"))`)
	if err != nil {
		t.Fatal(err)
	}
	if after != "3" {
		t.Fatalf("after add: count = %s, want 3", after)
	}
	// z.xml's shard was re-registered under a fresh container id: its
	// documents now come last in document order
	order, _ := db.CollectionDocs("c")
	zShard := store.ShardOf("z.xml", 2)
	var wantTail []string
	for _, d := range []string{"a.xml", "b.xml"} {
		if store.ShardOf(d, 2) == zShard {
			wantTail = append(wantTail, d)
		}
	}
	wantTail = append(wantTail, "z.xml")
	if fmt.Sprint(order[len(order)-len(wantTail):]) != fmt.Sprint(wantTail) {
		t.Fatalf("post-add order = %v, want tail %v", order, wantTail)
	}
	if err := db.AddToCollection("c", mxq.DocString("a.xml", `<d/>`)); err == nil ||
		!strings.Contains(err.Error(), "already in collection") {
		t.Fatalf("duplicate add error = %v", err)
	}
}

// TestNumbersAcrossAddToCollection: a numeric query fills the number memo
// of a collection's shards, and an add copies one of them. The new
// snapshot reads the copy's values and the added document's, and a
// statement bound to nodes of the old snapshot reads theirs.
func TestNumbersAcrossAddToCollection(t *testing.T) {
	db := mxq.Open()
	docs := []string{"a.xml", "b.xml", "c.xml", "d.xml", "e.xml"}
	var load []mxq.Doc
	for i, d := range docs {
		load = append(load, mxq.DocString(d, fmt.Sprintf(`<d><v>%d</v><w x=" %d "/></d>`, i+1, 10*(i+1))))
	}
	if err := db.LoadCollection("c", 2, load...); err != nil {
		t.Fatal(err)
	}
	const q = `(sum(collection("c")//v), sum(collection("c")//@x), count(collection("c")//v[. > 2]))`
	if got, err := db.QueryString(q); err != nil || got != "15 150 3" {
		t.Fatalf("before the add: %q, %v", got, err)
	}
	const added = "z.xml"
	var other, want []string // the values of the shard the add leaves alone, doubled
	for i, d := range docs {
		if store.ShardOf(d, 2) != store.ShardOf(added, 2) {
			other, want = append(other, fmt.Sprint(i+1)), append(want, fmt.Sprint(2*(i+1)))
		}
	}
	old, err := db.Query(`collection("c")//v[. = (` + strings.Join(other, ",") + `)]`)
	if err != nil || old.Len() != len(other) {
		t.Fatalf("nodes of the untouched shard: %v, %d items", err, old.Len())
	}
	stmt, err := db.Prepare(`declare variable $x external; for $v in $x return $v * 2`)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.AddToCollection("c", mxq.DocString(added, `<d><v>100</v><w x="1000"/></d>`)); err != nil {
		t.Fatal(err)
	}
	if got, err := db.QueryString(q); err != nil || got != "115 1150 4" {
		t.Fatalf("after the add: %q, %v", got, err)
	}
	if got, err := stmt.Bind("x", mxq.Items(old.Items()...)).ExecString(); err != nil || got != strings.Join(want, " ") {
		t.Fatalf("old snapshot's nodes after the add: %q, %v; want %q", got, err, strings.Join(want, " "))
	}
}

// TestBindNodesAcrossAddToCollection: nodes taken from a Result can be
// bound into a later execution as long as that execution's snapshot
// still holds their container. An AddToCollection supersedes one shard:
// nodes of the other shards keep resolving, nodes of the superseded
// version are a typed XPDY0002 of the binding (not a contained nil
// dereference), and so are a container id the engine never handed out
// and a node an earlier Result constructed.
func TestBindNodesAcrossAddToCollection(t *testing.T) {
	db := mxq.Open()
	docs := []string{"a.xml", "b.xml", "c.xml", "d.xml", "e.xml"}
	var load []mxq.Doc
	for _, d := range docs {
		load = append(load, mxq.DocString(d, `<d><n>`+d[:1]+`</n></d>`))
	}
	if err := db.LoadCollection("c", 2, load...); err != nil {
		t.Fatal(err)
	}
	stmt, err := db.Prepare(`declare variable $x external; for $n in $x return string($n)`)
	if err != nil {
		t.Fatal(err)
	}
	// one node sequence per shard, split by where the add will land
	const added = "z.xml"
	var hit, other []string
	for _, d := range docs {
		if store.ShardOf(d, 2) == store.ShardOf(added, 2) {
			hit = append(hit, d[:1])
		} else {
			other = append(other, d[:1])
		}
	}
	if len(hit) == 0 || len(other) == 0 {
		t.Fatalf("corpus does not span both shards: %v / %v", hit, other)
	}
	nodesOf := func(names []string) *mxq.Result {
		r, err := db.Query(`collection("c")//n[. = ("` + strings.Join(names, `","`) + `")]`)
		if err != nil || r.Len() != len(names) {
			t.Fatalf("nodes of %v: %v, %d items", names, err, r.Len())
		}
		return r
	}
	exec := func(r *mxq.Result) (string, error) {
		return stmt.Bind("x", mxq.Items(r.Items()...)).ExecString()
	}
	rHit, rOther := nodesOf(hit), nodesOf(other)
	if got, err := exec(rHit); err != nil || got != strings.Join(hit, " ") {
		t.Fatalf("before the add: %q, %v", got, err)
	}
	if err := db.AddToCollection("c", mxq.DocString(added, `<d><n>z</n></d>`)); err != nil {
		t.Fatal(err)
	}
	if got, err := exec(rOther); err != nil || got != strings.Join(other, " ") {
		t.Fatalf("nodes of the untouched shard after the add: %q, %v", got, err)
	}
	_, err = exec(rHit)
	if qe := mxq.AsQueryError(err); qe == nil || qe.Code != "XPDY0002" || !strings.Contains(err.Error(), "$x") {
		t.Fatalf("nodes of the superseded shard version: %v, want XPDY0002 naming $x", err)
	}
	// the old Result itself still serializes its version; asking again binds fine
	if got := rHit.String(); !strings.Contains(got, "<n>"+hit[0]+"</n>") {
		t.Fatalf("pre-add result no longer serializes: %q", got)
	}
	if got, err := exec(nodesOf(hit)); err != nil || got != strings.Join(hit, " ") {
		t.Fatalf("re-queried nodes: %q, %v", got, err)
	}
	built, err := db.Query(`<x>{1}</x>`)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []mxq.Value{mxq.Items(xqt.Node(99, 0)), mxq.Items(xqt.Attr(-1, 0)), mxq.Items(built.Items()...)} {
		_, err = stmt.Bind("x", v).ExecString()
		if qe := mxq.AsQueryError(err); qe == nil || qe.Code != "XPDY0002" {
			t.Fatalf("nodes of containers the engine never held, or that a Result constructed: %v, want XPDY0002", err)
		}
	}
}

// TestCollectionConcurrency: concurrent collection queries racing
// against AddToCollection writers must stay race-clean and always
// observe a consistent snapshot (count is one of the valid corpus sizes,
// never torn).
func TestCollectionConcurrency(t *testing.T) {
	db := mxq.Open()
	if err := db.LoadCollection("c", 3,
		mxq.DocString("a.xml", `<d><n>1</n></d>`),
		mxq.DocString("b.xml", `<d><n>2</n></d>`),
	); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				got, err := db.QueryString(`count(collection("c"))`)
				if err != nil {
					t.Errorf("query: %v", err)
					return
				}
				if got != "2" && got != "3" && got != "4" {
					t.Errorf("torn collection count %q", got)
					return
				}
			}
		}()
	}
	for i := 0; i < 2; i++ {
		name := fmt.Sprintf("new%d.xml", i)
		if err := db.AddToCollection("c", mxq.DocString(name, `<d><n>x</n></d>`)); err != nil {
			t.Errorf("add %s: %v", name, err)
		}
	}
	wg.Wait()
}

// TestDocConstantFolding covers the lifted doc()/collection() argument
// restriction: constant-foldable expressions resolve at plan time; a
// runtime-valued argument compiles but raises a clear dynamic error.
func TestDocConstantFolding(t *testing.T) {
	db := mxq.Open()
	if err := db.LoadDocumentString("a.xml", `<r><x>1</x></r>`); err != nil {
		t.Fatal(err)
	}
	if err := db.LoadDocumentString("b2.xml", `<r><x>2</x></r>`); err != nil {
		t.Fatal(err)
	}
	folded := map[string]string{
		`doc("b2.xml")/r/x/text()`:                       "2",
		`doc(concat("b", "2", ".xml"))/r/x/text()`:       "2",
		`doc(string("b2.xml"))/r/x/text()`:               "2",
		`doc(concat("b", 2, ".xml"))/r/x/text()`:         "2",
		`doc(("b2.xml"))/r/x/text()`:                     "2",
		`count(doc(concat("a", ".xml")) | doc("a.xml"))`: "1",
	}
	for q, want := range folded {
		got, err := db.QueryString(q)
		if err != nil {
			t.Errorf("%s: %v", q, err)
			continue
		}
		if got != want {
			t.Errorf("%s = %q, want %q", q, got, want)
		}
	}
	// runtime-valued argument: compiles, then fails with a clear dynamic
	// error naming the restriction
	for _, q := range []string{
		`doc(string(/r/x))`,
		`for $n in /r/x return doc(string($n))`,
		`collection(string(/r/x))`,
	} {
		if _, err := db.Engine().Compile(q); err != nil {
			t.Errorf("Compile(%s) = %v, want plan-time success", q, err)
		}
		_, err := db.QueryString(q)
		if err == nil || !strings.Contains(err.Error(), "not a constant string expression") {
			t.Errorf("%s error = %v, want runtime constant-argument error", q, err)
		}
	}
}
