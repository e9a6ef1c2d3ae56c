package mxq_test

import (
	"fmt"
	"sync"
	"testing"

	"mxq"
	"mxq/internal/naive"
	"mxq/internal/xmark"
	"mxq/internal/xqt"
)

// TestPreparedHundredBindingsDifferential is the acceptance check of
// the prepared-query tentpole: a query with an external variable is
// compiled ONCE via Prepare, then executed with 100 distinct bindings;
// every execution must be byte-identical to the naive oracle
// evaluating the same query with the same binding from scratch.
func TestPreparedHundredBindingsDifferential(t *testing.T) {
	const factor = 0.003
	db := mxq.Open()
	db.LoadXMark("auction.xml", factor, 7)
	oracle := naive.New()
	oracle.LoadDOM("auction.xml", xmark.NewDOM(factor, 7, oracle.OrdCounter()))

	q := `declare variable $min external;
	      for $a in /site/closed_auctions/closed_auction
	      where number($a/price) > $min
	      return <hit p="{$a/price/text()}">{count($a/annotation)}</hit>`
	stmt, err := db.Prepare(q)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		min := float64(i) * 2.5
		got, err := stmt.Bind("min", mxq.Float(min)).ExecString()
		if err != nil {
			t.Fatalf("binding %d: %v", i, err)
		}
		want, err := oracle.QueryStringBound(q, map[string][]naive.Val{
			"min": {{Atom: xqt.Double(min)}},
		})
		if err != nil {
			t.Fatalf("oracle binding %d: %v", i, err)
		}
		if got != want {
			t.Fatalf("binding %d (min=%g): relational %q != oracle %q", i, min, got, want)
		}
	}
}

// TestCountedThetaJoinsEmitNoPairs: XMark Q11 and Q12 only count each
// person's theta-join partners, so their existential join runs in count
// mode — one Fig. 8(b) reduction, a binary search per person, and no
// (person, auction) pair; the pair plan emitted 75 878 at factor 0.04.
// The results are checked against the oracle.
func TestCountedThetaJoinsEmitNoPairs(t *testing.T) {
	const factor = 0.01
	db := mxq.Open()
	db.LoadXMark("auction.xml", factor, 42)
	oracle := naive.New()
	oracle.LoadDOM("auction.xml", xmark.NewDOM(factor, 42, oracle.OrdCounter()))
	for _, q := range []int{11, 12} {
		stmt, err := db.Prepare(xmark.Query(q))
		if err != nil {
			t.Fatal(err)
		}
		res, err := stmt.Exec()
		if err != nil {
			t.Fatalf("Q%d: %v", q, err)
		}
		if st := res.Stats(); st.ThetaPairs != 0 || st.ExistAggr != 1 {
			t.Errorf("Q%d: %d theta pairs, %d extremum reductions; want 0 and 1", q, st.ThetaPairs, st.ExistAggr)
		}
		if want, err := oracle.QueryString(xmark.Query(q)); err != nil || res.String() != want {
			t.Errorf("Q%d differs from the oracle (oracle error %v)", q, err)
		}
	}
}

// TestStmtConcurrentBinders runs one prepared statement from 8+
// goroutines, each chaining its own Bind — the immutable-handle
// contract of the public API (race-clean under `go test -race`).
func TestStmtConcurrentBinders(t *testing.T) {
	db := mxq.Open()
	db.LoadXMark("auction.xml", 0.002, 3)
	stmt, err := db.Prepare(`declare variable $k external;
		declare variable $tag external := "person";
		<out k="{$k}">{count(/site/people/person) + $k}</out>`)
	if err != nil {
		t.Fatal(err)
	}
	base, err := db.Query(`count(/site/people/person)`)
	if err != nil {
		t.Fatal(err)
	}
	n := base.Items()[0].I
	const goroutines = 10
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			bound := stmt.Bind("k", mxq.Int(int64(g)))
			for i := 0; i < 25; i++ {
				got, err := bound.ExecString()
				if err != nil {
					errs <- err
					return
				}
				want := fmt.Sprintf(`<out k="%d">%d</out>`, g, n+int64(g))
				if got != want {
					errs <- fmt.Errorf("goroutine %d: got %q, want %q", g, got, want)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestStmtVarsAndValues covers the introspection and value surface of
// the public API.
func TestStmtVarsAndValues(t *testing.T) {
	db := mxq.Open()
	if err := db.LoadDocumentString("d.xml", `<d><v>1</v><v>2</v></d>`); err != nil {
		t.Fatal(err)
	}
	stmt, err := db.Prepare(`declare variable $a external;
		declare variable $b external := 1;
		declare variable $c := 2;
		sum(($a, $b, $c))`)
	if err != nil {
		t.Fatal(err)
	}
	vars := stmt.Vars()
	if len(vars) != 2 || vars[0].Name != "a" || !vars[0].Required || vars[1].Name != "b" || vars[1].Required || !vars[1].Singleton {
		t.Errorf("Vars() = %+v, want required $a and optional singleton $b", vars)
	}
	// Sequence of mixed typed values
	got, err := stmt.Bind("a", mxq.Sequence(mxq.Int(10), mxq.Float(0.5))).ExecString()
	if err != nil {
		t.Fatal(err)
	}
	if got != "13.5" {
		t.Errorf("sum with sequence binding = %q, want 13.5", got)
	}
	if v := mxq.Strings("x", "y", "z"); v.Len() != 3 {
		t.Errorf("Strings value Len = %d, want 3", v.Len())
	}
	// node sequence binding via Items
	res, err := db.Query(`/d/v`)
	if err != nil {
		t.Fatal(err)
	}
	stmt2, err := db.Prepare(`declare variable $nodes external; sum(for $n in $nodes return number($n))`)
	if err != nil {
		t.Fatal(err)
	}
	got, err = stmt2.Bind("nodes", mxq.Items(res.Items()...)).ExecString()
	if err != nil {
		t.Fatal(err)
	}
	if got != "3" {
		t.Errorf("node-sequence binding sum = %q, want 3", got)
	}
}

// The sequence constructors copy: mutating the slice after building the
// value changes neither the value nor a statement already bound to it.
func TestValuesCopyCallerSlices(t *testing.T) {
	db := mxq.Open()
	db.LoadXMark("auction.xml", 0.002, 3)
	stmt, err := db.Prepare(`declare variable $v external; $v`)
	if err != nil {
		t.Fatal(err)
	}
	ints, floats, strs := []int64{1, 2}, []float64{1.5, 2.5}, []string{"a", "b"}
	items := []xqt.Item{xqt.Int(7), xqt.Str("x")}
	bound := []*mxq.Stmt{
		stmt.Bind("v", mxq.Ints(ints...)), stmt.Bind("v", mxq.Floats(floats...)),
		stmt.Bind("v", mxq.Strings(strs...)), stmt.Bind("v", mxq.Items(items...)),
	}
	ints[0], floats[0], strs[0], items[0] = 9, 9.5, "z", xqt.Str("z")
	for i, want := range []string{"1 2", "1.5 2.5", "a b", "7 x"} {
		if got, err := bound[i].ExecString(); err != nil || got != want {
			t.Errorf("value %d after its slice was mutated: %q, %v; want %q", i, got, err, want)
		}
	}
}
