package ralg

import (
	"fmt"
	"strings"
	"testing"

	"mxq/internal/scj"
	"mxq/internal/store"
	"mxq/internal/xqt"
)

func TestRangeGen(t *testing.T) {
	in := NewTable([]string{"iter", "lo", "hi"}, []xqt.Kind{xqt.KInt, xqt.KUntyped, xqt.KUntyped})
	in.N = 3
	*in.Col("iter") = BindInts(1, 2, 3)
	*in.Col("lo") = ItemsOf(xqt.Int(1), xqt.Int(5), xqt.Int(3))
	*in.Col("hi") = ItemsOf(xqt.Int(3), xqt.Int(4), xqt.Int(3))
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

// A column read as integer keys that is not a uniform xs:integer vector
// is a plan defect: the operator fails with an internal error instead of
// reading, say, a node column's pre ranks as iterations — and so does a
// selection over a column that is not xs:boolean.
func TestIntsOnNodeColumnIsAnError(t *testing.T) {
	pool := store.NewPool()
	c, err := store.Shred("d", strings.NewReader("<a><b/></a>"), false)
	if err != nil {
		t.Fatal(err)
	}
	pool.Register(c)
	nodes := tableOf([]string{"iter"}, ItemsOf(xqt.Node(c.ID, 0), xqt.Node(c.ID, 1)))
	j := NewHashJoin(&Lit{Tab: nodes}, &Lit{Tab: intTable("iter", 0, 1)}, "iter", "iter", Refs("iter->l"), Refs("iter->r"))
	sel := &Select{Cond: "iter"}
	sel.SetInput(0, &Lit{Tab: intTable("iter", 1, 0)})
	for _, p := range []Plan{j, sel} {
		out, err := NewExec(pool, nil).Run(p)
		if err == nil || !strings.Contains(err.Error(), `column "iter" is not a uniform`) {
			t.Errorf("%s: %v, %v; want the internal error", p.Name(), out, err)
		}
	}
	// an empty column of any kind holds no key to misread
	empty := tableOf([]string{"iter"}, ItemVec{Tag: xqt.KNode})
	if _, err := NewExec(pool, nil).Run(NewHashJoin(&Lit{Tab: empty}, &Lit{Tab: intTable("iter", 1)}, "iter", "iter", Refs("iter"), nil)); err != nil {
		t.Errorf("hash join of an empty node column: %v", err)
	}
}

func TestCoverCheck(t *testing.T) {
	loop := intTable("iter", 1, 2, 3)
	partial := seqTable([]int64{1, 3}, []int64{1, 1},
		[]xqt.Item{xqt.Int(1), xqt.Int(2)})
	pool := store.NewPool()
	for _, code := range []string{"FORG0004", "FORG0005"} {
		cc := &CoverCheck{LoopIter: "iter", Part: "iter", Fn: "fn:exactly-one", Code: code}
		cc.SetInput(0, &Lit{Tab: loop})
		cc.SetInput(1, &Lit{Tab: partial})
		if _, err := NewExec(pool, nil).Run(cc); !strings.Contains(fmt.Sprint(err), code) {
			t.Errorf("missing iteration 2 raised %v, want %s", err, code)
		}
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

// TestAttrStep: the attribute axis is a Step axis whose node test a name
// or * passes by name and node() always, and every other kind test never.
func TestAttrStep(t *testing.T) {
	pool := store.NewPool()
	c, err := store.Shred("d", strings.NewReader(`<r a="1" b="2"><s a="3"/></r>`), false)
	if err != nil {
		t.Fatal(err)
	}
	pool.Register(c)
	ctx := NewTable([]string{"iter", "item"}, []xqt.Kind{xqt.KInt, xqt.KUntyped})
	ctx.N = 3
	*ctx.Col("iter") = BindInts(1, 2, 1)
	*ctx.Col("item") = ItemsOf(xqt.Node(c.ID, 1), xqt.Node(c.ID, 1), xqt.Node(c.ID, 2))
	srt := NewSort(&Lit{Tab: ctx}, "item", "iter")
	all := &Step{Axis: scj.Attribute, Test: scj.Test{Kind: scj.TestNode}, IterCol: "iter", ItemCol: "item"}
	all.SetInput(0, srt)
	out, err := NewExec(pool, nil).Run(all)
	if err != nil {
		t.Fatal(err)
	}
	// r has a,b in iterations 1 and 2 (4 rows); s has a in iteration 1
	if out.N != 5 {
		t.Fatalf("attr rows: %d\n%s", out.N, out)
	}
	named := &Step{Axis: scj.Attribute, Test: scj.Test{Kind: scj.TestElem, Name: "a"}, IterCol: "iter", ItemCol: "item"}
	named.SetInput(0, srt)
	out, err = NewExec(pool, nil).Run(named)
	if err != nil {
		t.Fatal(err)
	}
	if out.N != 3 {
		t.Fatalf("named attr rows: %d\n%s", out.N, out)
	}
	for _, kind := range []scj.TestKind{scj.TestText, scj.TestComment, scj.TestPI, scj.TestDoc} {
		none := &Step{Axis: scj.Attribute, Test: scj.Test{Kind: kind}, IterCol: "iter", ItemCol: "item"}
		none.SetInput(0, srt)
		if out, err = NewExec(pool, nil).Run(none); err != nil || out.N != 0 {
			t.Fatalf("kind test %d: %v\n%s", kind, err, out)
		}
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
