package mxq_test

import (
	"fmt"
	"os"
	"strconv"
	"testing"

	"mxq"
	"mxq/internal/naive"
	"mxq/internal/qgen"
	"mxq/internal/ralg"
	"mxq/internal/xmark"
	"mxq/internal/xqt"
)

// The randomized differential fuzzer: a seeded, deterministic query
// generator (internal/qgen) produces XPath/FLWOR queries over two single
// XMark documents and one sharded multi-document collection; every query
// runs through the relational engine serially, through the relational
// engine with forced parallel execution (4 workers, threshold 1 — every
// chunked code path engages even on small inputs), and through the naive
// DOM oracle. Serializations must be byte-identical; a query may error
// only if all three engines error.
//
// The short run is part of the regular `go test` suite (and the CI
// `make fuzz-short` target); the long run lives behind `-tags slow`.

// fuzzWorld is the document corpus shared by all engines of one run.
type fuzzWorld struct {
	oracle   *naive.Interp
	serial   *mxq.DB
	parallel *mxq.DB
	roots    []string
}

// buildFuzzWorld loads two distinct XMark documents (a.xml is the context
// document of absolute paths) plus an ndocs-document collection sharded
// across `shards` containers, mirrored into the naive oracle in the
// relational collection's document order. Both relational engines run
// the plan verifier on every generated plan.
func buildFuzzWorld(t testing.TB, factor float64, ndocs, shards int) *fuzzWorld {
	t.Helper()
	t.Setenv("MXQ_VERIFY_PLANS", "1")
	w := &fuzzWorld{
		serial:   mxq.Open(),
		parallel: mxq.Open(mxq.WithWorkers(4), mxq.WithParallelThreshold(1)),
		oracle:   naive.New(),
	}
	for _, db := range []*mxq.DB{w.serial, w.parallel} {
		db.LoadXMark("a.xml", factor, 1)
		db.LoadXMark("b.xml", factor, 2)
	}
	seeds := w.serial.LoadXMarkCollection("xm", ndocs, shards, factor, 100)
	w.parallel.LoadXMarkCollection("xm", ndocs, shards, factor, 100)

	w.oracle.LoadDOM("a.xml", xmark.NewDOM(factor, 1, w.oracle.OrdCounter()))
	w.oracle.LoadDOM("b.xml", xmark.NewDOM(factor, 2, w.oracle.OrdCounter()))
	order, ok := w.serial.CollectionDocs("xm")
	if !ok {
		t.Fatal("collection xm not registered")
	}
	if po, _ := w.parallel.CollectionDocs("xm"); fmt.Sprint(po) != fmt.Sprint(order) {
		t.Fatalf("serial and parallel engines disagree on collection order: %v vs %v", order, po)
	}
	for _, d := range order {
		w.oracle.AddCollectionDOM("xm", xmark.NewDOM(factor, seeds[d], w.oracle.OrdCounter()))
	}
	w.roots = []string{
		"/site",
		`doc("b.xml")/site`,
		`collection("xm")/site`,
		`collection("xm")`,
	}
	return w
}

// relBindings converts generated bindings to the relational engines'
// typed binding environment.
func relBindings(binds map[string][]xqt.Item) mxq.Bindings {
	if len(binds) == 0 {
		return nil
	}
	out := make(mxq.Bindings, len(binds))
	for name, items := range binds {
		out[name] = ralg.BindItems(items...)
	}
	return out
}

// naiveBindings converts generated bindings to the oracle's value
// sequences.
func naiveBindings(binds map[string][]xqt.Item) map[string][]naive.Val {
	if len(binds) == 0 {
		return nil
	}
	out := make(map[string][]naive.Val, len(binds))
	for name, items := range binds {
		vals := make([]naive.Val, len(items))
		for i, it := range items {
			vals[i] = naive.Val{Atom: it}
		}
		out[name] = vals
	}
	return out
}

// runDifferentialFuzz generates n queries from the given seed and
// cross-checks the three engines on each. Every third query is a
// parameterized query: its prolog declares 1–2 external variables and
// it executes through the prepared path (Prepare + Execute with typed
// bindings) on the relational engines versus QueryBound on the oracle.
func runDifferentialFuzz(t *testing.T, w *fuzzWorld, seed int64, n int) {
	g := qgen.New(seed, w.roots)
	agreedErrs := 0
	for i := 0; i < n; i++ {
		var q string
		var binds map[string][]xqt.Item
		if i%3 == 2 {
			bq := g.BoundQuery()
			q, binds = bq.Query, bq.Binds
		} else {
			q = g.Query()
		}
		rb := relBindings(binds)
		want, errO := w.oracle.QueryStringBound(q, naiveBindings(binds))
		gotS, errS := queryBound(w.serial, q, rb)
		gotP, errP := queryBound(w.parallel, q, rb)
		nerr := 0
		for _, err := range []error{errO, errS, errP} {
			if err != nil {
				nerr++
			}
		}
		switch {
		case nerr == 3:
			agreedErrs++ // all engines reject the query: agreement
		case nerr != 0:
			t.Fatalf("query %d %q (binds %v): engines disagree on erroring:\n oracle: %v\n serial: %v\n parallel: %v",
				i, q, binds, errO, errS, errP)
		case gotS != want:
			t.Fatalf("query %d %q (binds %v): serial mismatch:\n got  %q\n want %q", i, q, binds, gotS, want)
		case gotP != want:
			t.Fatalf("query %d %q (binds %v): parallel mismatch:\n got  %q\n want %q", i, q, binds, gotP, want)
		}
	}
	t.Logf("%d queries, %d with agreed errors, 0 mismatches", n, agreedErrs)
	if agreedErrs > n/5 {
		t.Errorf("%d/%d queries errored — generator drifted out of the supported dialect", agreedErrs, n)
	}
}

// queryBound runs one query through the prepared path of a relational
// engine.
func queryBound(db *mxq.DB, q string, b mxq.Bindings) (string, error) {
	p, err := db.Engine().Prepare(q)
	if err != nil {
		return "", err
	}
	return p.ExecuteString(b)
}

// TestDifferentialFuzzShort is the seeded short run wired into the
// regular test suite: 500 generated queries, zero mismatches. The
// default seed is fixed for reproducibility; MXQ_FUZZ_SEED overrides it
// so repeated CI invocations (`make fuzz-short`) explore fresh query
// streams instead of replaying the in-suite one.
func TestDifferentialFuzzShort(t *testing.T) {
	seed := int64(20260729)
	if s := os.Getenv("MXQ_FUZZ_SEED"); s != "" {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			t.Fatalf("MXQ_FUZZ_SEED=%q: %v", s, err)
		}
		seed = v
	}
	w := buildFuzzWorld(t, 0.001, 6, 3)
	runDifferentialFuzz(t, w, seed, 500)
}
