package ralg

import (
	"strings"
	"testing"

	"mxq/internal/store"
	"mxq/internal/xqt"
)

func TestRangeGen(t *testing.T) {
	in := NewTable([]string{"iter", "lo", "hi"}, []ColKind{KInt, KItem, KItem})
	in.N = 3
	in.Col("iter").Int = []int64{1, 2, 3}
	in.Col("lo").Item = ItemsOf(xqt.Int(1), xqt.Int(5), xqt.Int(3))
	in.Col("hi").Item = ItemsOf(xqt.Int(3), xqt.Int(4), xqt.Int(3))
	rg := &RangeGen{Iter: "iter", Lo: "lo", Hi: "hi"}
	rg.SetInput(0, &Lit{Tab: in})
	out := run(t, rg)
	// iter 1: 1,2,3; iter 2: empty (5 > 4); iter 3: 3
	if out.N != 4 {
		t.Fatalf("rows: %d\n%s", out.N, out)
	}
	if out.Ints("iter")[3] != 3 || out.Items("item")[3].I != 3 {
		t.Errorf("range output: %s", out)
	}
	if out.Ints("pos")[2] != 3 {
		t.Errorf("positions: %v", out.Ints("pos"))
	}
}

func TestColToItem(t *testing.T) {
	in := intTable("v", 7, 8)
	in.AddCol("b", Col{Kind: KBool, Bool: []bool{true, false}})
	c1 := &ColToItem{Src: "v", Dst: "vi"}
	c1.SetInput(0, &Lit{Tab: in})
	out := run(t, c1)
	if out.Items("vi")[1] != xqt.Int(8) {
		t.Errorf("int conversion: %+v", out.Items("vi"))
	}
	c2 := &ColToItem{Src: "b", Dst: "bi"}
	c2.SetInput(0, &Lit{Tab: in})
	out = run(t, c2)
	if out.Items("bi")[0] != xqt.Bool(true) {
		t.Errorf("bool conversion: %+v", out.Items("bi"))
	}
}

func TestCoverCheck(t *testing.T) {
	loop := intTable("iter", 1, 2, 3)
	partial := seqTable([]int64{1, 3}, []int64{1, 1},
		[]xqt.Item{xqt.Int(1), xqt.Int(2)})
	cc := &CoverCheck{LoopIter: "iter", Part: "iter", Fn: "fn:exactly-one"}
	cc.SetInput(0, &Lit{Tab: loop})
	cc.SetInput(1, &Lit{Tab: partial})
	pool := store.NewPool()
	if _, err := NewExec(pool, nil).Run(cc); err == nil {
		t.Error("missing iteration 2 must raise an error")
	}
	full := seqTable([]int64{1, 2, 3}, []int64{1, 1, 1},
		[]xqt.Item{xqt.Int(1), xqt.Int(2), xqt.Int(3)})
	cc2 := &CoverCheck{LoopIter: "iter", Part: "iter", Fn: "fn:exactly-one"}
	cc2.SetInput(0, &Lit{Tab: loop})
	cc2.SetInput(1, &Lit{Tab: full})
	if _, err := NewExec(pool, nil).Run(cc2); err != nil {
		t.Errorf("full cover rejected: %v", err)
	}
}

// TestExistJoinHeterogeneous exercises the per-pair promotion fallback:
// a column mixing numeric and string values joins per the XQuery rules.
func TestExistJoinHeterogeneous(t *testing.T) {
	l := seqTable([]int64{1, 2}, []int64{1, 1},
		[]xqt.Item{xqt.Int(10), xqt.Str("x")})
	r := seqTable([]int64{1, 2}, []int64{1, 1},
		[]xqt.Item{xqt.Untyped("10"), xqt.Untyped("x")})
	j := &ExistJoin{Cmp: xqt.CmpEq, LIter: "iter", LItem: "item",
		RIter: "iter", RItem: "item", Out1: "a", Out2: "b"}
	j.SetInput(0, &Lit{Tab: l})
	j.SetInput(1, &Lit{Tab: r})
	out := run(t, j)
	// 10 = untyped "10" (numeric), "x" = untyped "x" (string)
	if out.N != 2 {
		t.Fatalf("pairs: %d\n%s", out.N, out)
	}
}

func TestExistJoinEqNaNNeverMatches(t *testing.T) {
	l := seqTable([]int64{1}, []int64{1}, []xqt.Item{xqt.Untyped("abc")})
	r := seqTable([]int64{1}, []int64{1}, []xqt.Item{xqt.Int(5)})
	j := &ExistJoin{Cmp: xqt.CmpEq, LIter: "iter", LItem: "item",
		RIter: "iter", RItem: "item", Out1: "a", Out2: "b"}
	j.SetInput(0, &Lit{Tab: l})
	j.SetInput(1, &Lit{Tab: r})
	out := run(t, j)
	if out.N != 0 {
		t.Errorf("NaN matched: %s", out)
	}
}

func TestAttrStep(t *testing.T) {
	pool := store.NewPool()
	c, err := store.Shred("d", strings.NewReader(`<r a="1" b="2"><s a="3"/></r>`), false)
	if err != nil {
		t.Fatal(err)
	}
	pool.Register(c)
	ctx := NewTable([]string{"iter", "item"}, []ColKind{KInt, KItem})
	ctx.N = 3
	ctx.Col("iter").Int = []int64{1, 2, 1}
	ctx.Col("item").Item = ItemsOf(xqt.Node(c.ID, 1), xqt.Node(c.ID, 1), xqt.Node(c.ID, 2))
	srt := NewSort(&Lit{Tab: ctx}, "item", "iter")
	all := &AttrStep{IterCol: "iter", ItemCol: "item"}
	all.SetInput(0, srt)
	out, err := NewExec(pool, nil).Run(all)
	if err != nil {
		t.Fatal(err)
	}
	// r has a,b in iterations 1 and 2 (4 rows); s has a in iteration 1
	if out.N != 5 {
		t.Fatalf("attr rows: %d\n%s", out.N, out)
	}
	named := &AttrStep{NameTest: "a", IterCol: "iter", ItemCol: "item"}
	named.SetInput(0, srt)
	out, err = NewExec(pool, nil).Run(named)
	if err != nil {
		t.Fatal(err)
	}
	if out.N != 3 {
		t.Fatalf("named attr rows: %d\n%s", out.N, out)
	}
}

func TestUnionMultipleInputs(t *testing.T) {
	u := &Union{Ins: []Plan{
		&Lit{Tab: intTable("k", 1)},
		&Lit{Tab: intTable("k", 2, 3)},
		&Lit{Tab: intTable("k")},
		&Lit{Tab: intTable("k", 4)},
	}}
	out := run(t, u)
	if out.N != 4 || out.Ints("k")[3] != 4 {
		t.Errorf("union: %v", out.Ints("k"))
	}
}

func TestSortDescending(t *testing.T) {
	tab := intTable("k", 2, 1, 3)
	s := NewSort(&Lit{Tab: tab}, "k")
	s.Desc = []bool{true}
	out := run(t, s)
	if out.Ints("k")[0] != 3 || out.Ints("k")[2] != 1 {
		t.Errorf("desc sort: %v", out.Ints("k"))
	}
}

func TestMemoizationSharesResults(t *testing.T) {
	shared := NewSort(&Lit{Tab: intTable("k", 3, 1, 2)}, "k")
	u := &Union{Ins: []Plan{shared, shared}}
	pool := store.NewPool()
	ex := NewExec(pool, nil)
	out, err := ex.Run(u)
	if err != nil {
		t.Fatal(err)
	}
	if out.N != 6 {
		t.Errorf("rows: %d", out.N)
	}
	if ex.Stats.FullSorts != 1 {
		t.Errorf("shared subplan sorted %d times, want 1", ex.Stats.FullSorts)
	}
}
