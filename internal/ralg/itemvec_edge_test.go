package ralg

import (
	"sort"
	"testing"

	"mxq/internal/store"
	"mxq/internal/xqt"
)

// Edge coverage for the ItemVec mixed-tag fallback paths that the
// kernel-agreement property test does not reach: zero-row columns, tag
// vectors that survive a Select (a gathered mixed column keeps its Tags
// vector even when the surviving rows share one kind — or none), and
// Sort stability over mixed numeric/string columns.

// mixedVec builds a deliberately mixed-tag column.
func mixedVec(items ...xqt.Item) ItemVec {
	v := NewItemVec(items)
	if v.Tags == nil && len(items) > 0 {
		// force the mixed representation even for uniform inputs
		tags := make([]xqt.Kind, v.Len())
		for i := range tags {
			tags[i] = v.KindAt(i)
		}
		v.Tags = tags
	}
	return v
}

// TestItemVecEmptyColumns: every operator that dispatches on column tags
// must handle zero-row columns — both the uniform empty vector (Tags
// nil) and the empty-but-mixed vector a Gather of a mixed column
// produces (Tags non-nil, length 0).
func TestItemVecEmptyColumns(t *testing.T) {
	pool := store.NewPool()
	mixed := mixedVec(xqt.Int(1), xqt.Str("a"), xqt.Double(2.5))
	emptyMixed := mixed.gatherIn(nil, outRegion, nil)
	if emptyMixed.Tags == nil || emptyMixed.Len() != 0 {
		t.Fatalf("gather(nil) of a mixed column: Tags=%v len=%d, want non-nil tags, 0 rows", emptyMixed.Tags, emptyMixed.Len())
	}
	for name, vec := range map[string]ItemVec{
		"uniform-empty": {},
		"mixed-empty":   emptyMixed,
	} {
		tab := &Table{N: 0}
		tab.AddCol("iter", ItemVec{Tag: xqt.KInt})
		tab.AddCol("item", vec)
		tab.AddCol("b", vec)
		ex := NewExec(pool, nil)

		for _, op := range []FunOp{FunAdd, FunEq, FunConcat} {
			out, err := ex.execFun(&Fun{Op: op, Args: []string{"item", "b"}, Out: "o"}, tab)
			if err != nil || out.N != 0 {
				t.Fatalf("%s: fun(%d) over empty column: N=%v err=%v", name, op, out, err)
			}
		}
		for _, op := range []FunOp{FunStringOf, FunNumber, FunAtomize, FunNeg} {
			out, err := ex.execFun(&Fun{Op: op, Args: []string{"item"}, Out: "o"}, tab)
			if err != nil || out.N != 0 {
				t.Fatalf("%s: fun(%d) over empty column: N=%v err=%v", name, op, out, err)
			}
		}
		for _, op := range []AggOp{AggCount, AggSum, AggMin, AggMax, AggAvg} {
			a := &Aggr{Part: "iter", Op: op, Arg: "item", Out: "o"}
			out, err := ex.execAggr(a, tab)
			if err != nil || out.N != 0 {
				t.Fatalf("%s: aggr(%d) over empty column: N=%v err=%v", name, op, out, err)
			}
		}
		srt := ex.execSort(&Sort{By: []string{"item"}}, tab)
		if srt.N != 0 {
			t.Fatalf("%s: sort over empty column returned %d rows", name, srt.N)
		}
		d := NewExec(nil, nil).execDistinct(&Distinct{By: []string{"item"}}, tab)
		if d.N != 0 {
			t.Fatalf("%s: distinct over empty column returned %d rows", name, d.N)
		}
	}
}

// TestSelectKeepsTagVector: Select gathers rows out of a mixed column.
// The result keeps its Tags vector even when the surviving rows are
// uniform (re-detecting uniformity is not worth a scan), and the per-row
// fallback paths must produce results identical to what the typed kernel
// computes on the equivalent uniform column.
func TestSelectKeepsTagVector(t *testing.T) {
	pool := store.NewPool()
	mixed := mixedVec(xqt.Int(1), xqt.Str("x"), xqt.Int(3), xqt.Str("y"), xqt.Int(5))
	cond := BindBools(true, false, true, false, true) // keep the ints only
	tab := &Table{N: 5}
	tab.AddCol("item", mixed)
	tab.AddCol("keep", cond)
	ex := NewExec(pool, nil)
	sel := ex.execSelect(&Select{Cond: "keep"}, tab)
	if sel.N != 3 {
		t.Fatalf("select kept %d rows, want 3", sel.N)
	}
	got := sel.Col("item")
	if got.Tags == nil {
		t.Fatal("gathered mixed column lost its tag vector")
	}
	if _, uniform := got.Uniform(); uniform {
		t.Fatal("gathered mixed column reports uniform")
	}
	// fallback vs kernel agreement on the gathered rows
	sel.AddCol("two", ex.constItemVec(xqt.Int(2), 3))
	viaFallback, err := ex.execFun(&Fun{Op: FunMul, Args: []string{"item", "two"}, Out: "o"}, sel)
	if err != nil {
		t.Fatal(err)
	}
	uni := NewItemVec([]xqt.Item{xqt.Int(1), xqt.Int(3), xqt.Int(5)})
	utab := &Table{N: 3}
	utab.AddCol("item", uni)
	utab.AddCol("two", ex.constItemVec(xqt.Int(2), 3))
	viaKernel, err := ex.execFun(&Fun{Op: FunMul, Args: []string{"item", "two"}, Out: "o"}, utab)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if viaFallback.Col("o").At(i) != viaKernel.Col("o").At(i) {
			t.Fatalf("row %d: fallback %+v != kernel %+v", i,
				viaFallback.Col("o").At(i), viaKernel.Col("o").At(i))
		}
	}
}

// TestSortStabilityMixedColumn: Sort over a mixed numeric/string item
// column must order rows by xqt.SortLess and keep the input order of
// rows whose keys compare equal (1 vs 1.0, duplicate strings) — checked
// against an independent stable reference sort.
func TestSortStabilityMixedColumn(t *testing.T) {
	pool := store.NewPool()
	items := []xqt.Item{
		xqt.Str("b"), xqt.Int(2), xqt.Double(1.0), xqt.Str("a"),
		xqt.Int(1), xqt.Str("a"), xqt.Double(2.0), xqt.Int(2),
		xqt.Str("b"), xqt.Double(1.5),
	}
	n := len(items)
	seq := make([]int64, n)
	for i := range seq {
		seq[i] = int64(i)
	}
	tab := &Table{N: n}
	tab.AddCol("item", mixedVec(items...))
	tab.AddCol("seq", uniformIntCol(seq))
	ex := NewExec(pool, nil)
	out := ex.execSort(&Sort{By: []string{"item"}}, tab)

	ref := make([]int, n)
	for i := range ref {
		ref[i] = i
	}
	sort.SliceStable(ref, func(a, b int) bool { return xqt.SortLess(items[ref[a]], items[ref[b]]) })
	for i := 0; i < n; i++ {
		if out.Ints("seq")[i] != int64(ref[i]) {
			t.Fatalf("row %d: got input row %d, want %d (stability violated)\ngot:  %v\nwant: %v",
				i, out.Ints("seq")[i], ref[i], out.Ints("seq"), ref)
		}
	}
	// the sorted column still reconstructs the right items
	for i := 0; i < n; i++ {
		if out.Col("item").At(i) != items[ref[i]] {
			t.Fatalf("row %d: item %+v, want %+v", i, out.Col("item").At(i), items[ref[i]])
		}
	}
}
