package ralg

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"mxq/internal/scj"
	"mxq/internal/store"
	"mxq/internal/xqt"
)

func intTable(name string, vals ...int64) *Table {
	t := NewTable([]string{name}, []ColKind{KInt})
	t.N = len(vals)
	t.Col(name).Int = vals
	return t
}

func seqTable(iters []int64, poss []int64, items []xqt.Item) *Table {
	t := NewTable([]string{"iter", "pos", "item"}, []ColKind{KInt, KInt, KItem})
	t.N = len(iters)
	t.Col("iter").Int = iters
	t.Col("pos").Int = poss
	t.Col("item").Item = NewItemVec(items)
	return t
}

func run(t *testing.T, p Plan) *Table {
	t.Helper()
	pool := store.NewPool()
	tr := store.NewContainer("")
	pool.Register(tr)
	ex := NewExec(pool, tr)
	tab, err := ex.Run(p)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return tab
}

func TestProjectRename(t *testing.T) {
	in := &Lit{Tab: intTable("a", 1, 2, 3)}
	out := run(t, NewProject(in, "a->b"))
	if out.Names()[0] != "b" || out.Ints("b")[2] != 3 {
		t.Errorf("project rename failed: %v", out)
	}
}

func TestAttachAndSelect(t *testing.T) {
	tab := intTable("iter", 1, 2, 3, 4)
	tab.AddCol("c", Col{Kind: KBool, Bool: []bool{true, false, true, false}})
	in := &Lit{Tab: tab}
	f := NewFun(in, FunNot, "nc", "c")
	sel := &Select{unary: unary{In: f}, Cond: "nc"}
	out := run(t, sel)
	if out.N != 2 || out.Ints("iter")[0] != 2 || out.Ints("iter")[1] != 4 {
		t.Errorf("select: %v", out)
	}
	neg := &Select{unary: unary{In: f}, Cond: "nc", Neg: true}
	out = run(t, neg)
	if out.N != 2 || out.Ints("iter")[0] != 1 {
		t.Errorf("negated select: %v", out)
	}
	at := AttachInt(in, "k", 9)
	out = run(t, at)
	if out.Ints("k")[3] != 9 {
		t.Errorf("attach: %v", out.Ints("k"))
	}
	ai := AttachItem(in, "it", xqt.Str("v"))
	out = run(t, ai)
	if out.Items("it")[0].S != "v" {
		t.Errorf("attach item failed")
	}
}

func TestRowNumModes(t *testing.T) {
	// table with part column and values to order by
	tab := NewTable([]string{"part", "v"}, []ColKind{KInt, KInt})
	tab.N = 6
	tab.Col("part").Int = []int64{1, 2, 1, 2, 1, 3}
	tab.Col("v").Int = []int64{30, 10, 10, 20, 20, 5}

	// RankSort: ranks within part by v
	rn := NewRowNum(&Lit{Tab: tab}, "r", []string{"v"}, "part")
	out := run(t, rn)
	want := []int64{3, 1, 1, 2, 2, 1}
	for i, w := range want {
		if out.Ints("r")[i] != w {
			t.Errorf("RankSort row %d: got %d want %d", i, out.Ints("r")[i], w)
		}
	}

	// RankStream: arrival order per part
	rs := NewRowNum(&Lit{Tab: tab}, "r", nil, "part")
	rs.Mode = RankStream
	out = run(t, rs)
	want = []int64{1, 1, 2, 2, 3, 1}
	for i, w := range want {
		if out.Ints("r")[i] != w {
			t.Errorf("RankStream row %d: got %d want %d", i, out.Ints("r")[i], w)
		}
	}

	// RankSeq over part-sorted input
	tab2 := NewTable([]string{"part"}, []ColKind{KInt})
	tab2.N = 5
	tab2.Col("part").Int = []int64{1, 1, 2, 2, 2}
	rq := NewRowNum(&Lit{Tab: tab2}, "r", nil, "part")
	rq.Mode = RankSeq
	out = run(t, rq)
	want = []int64{1, 2, 1, 2, 3}
	for i, w := range want {
		if out.Ints("r")[i] != w {
			t.Errorf("RankSeq row %d: got %d want %d", i, out.Ints("r")[i], w)
		}
	}
}

func TestSortRefineEqualsFull(t *testing.T) {
	tab := NewTable([]string{"a", "b"}, []ColKind{KInt, KInt})
	tab.N = 6
	tab.Col("a").Int = []int64{1, 1, 1, 2, 2, 3} // already sorted
	tab.Col("b").Int = []int64{3, 1, 2, 2, 1, 1}
	full := NewSort(&Lit{Tab: tab}, "a", "b")
	refine := NewSort(&Lit{Tab: tab}, "a", "b")
	refine.RefinePrefix = 1
	of := run(t, full)
	or := run(t, refine)
	for i := 0; i < of.N; i++ {
		if of.Ints("b")[i] != or.Ints("b")[i] {
			t.Fatalf("refine sort differs at %d: %v vs %v", i, of.Ints("b"), or.Ints("b"))
		}
	}
	if !IsSortedBy(of, []string{"a", "b"}) {
		t.Error("full sort output unsorted")
	}
}

func TestHashJoinAndPositional(t *testing.T) {
	l := intTable("k", 3, 1, 2, 3)
	r := NewTable([]string{"k2", "v"}, []ColKind{KInt, KInt})
	r.N = 3
	r.Col("k2").Int = []int64{1, 2, 3} // dense
	r.Col("v").Int = []int64{10, 20, 30}
	j := NewHashJoin(&Lit{Tab: l}, &Lit{Tab: r}, "k", "k2",
		Refs("k"), Refs("v"))
	out := run(t, j)
	wantV := []int64{30, 10, 20, 30}
	for i, w := range wantV {
		if out.Ints("v")[i] != w {
			t.Errorf("hash join row %d: v=%d want %d", i, out.Ints("v")[i], w)
		}
	}
	j2 := NewHashJoin(&Lit{Tab: l}, &Lit{Tab: r}, "k", "k2", Refs("k"), Refs("v"))
	j2.Pos = true
	out2 := run(t, j2)
	for i, w := range wantV {
		if out2.Ints("v")[i] != w {
			t.Errorf("positional join row %d: v=%d want %d", i, out2.Ints("v")[i], w)
		}
	}
}

func TestDiffAndUnionAndDistinct(t *testing.T) {
	l := intTable("k", 1, 2, 3, 4)
	r := intTable("k", 2, 4)
	d := &Diff{binary: binary{L: &Lit{Tab: l}, R: &Lit{Tab: r}}, LKey: "k", RKey: "k"}
	out := run(t, d)
	if out.N != 2 || out.Ints("k")[0] != 1 || out.Ints("k")[1] != 3 {
		t.Errorf("diff: %v", out.Ints("k"))
	}
	u := &Union{Ins: []Plan{&Lit{Tab: l}, &Lit{Tab: r}}}
	out = run(t, u)
	if out.N != 6 || out.Ints("k")[5] != 4 {
		t.Errorf("union: %v", out.Ints("k"))
	}
	dup := intTable("k", 1, 2, 1, 3, 2)
	di := &Distinct{unary: unary{In: &Lit{Tab: dup}}, By: []string{"k"}}
	out = run(t, di)
	if out.N != 3 || out.Ints("k")[0] != 1 || out.Ints("k")[2] != 3 {
		t.Errorf("distinct: %v", out.Ints("k"))
	}
	sorted := intTable("k", 1, 1, 2, 3, 3)
	dm := &Distinct{unary: unary{In: &Lit{Tab: sorted}}, By: []string{"k"}, Merge: true}
	out = run(t, dm)
	if out.N != 3 {
		t.Errorf("merge distinct: %v", out.Ints("k"))
	}
}

func TestAggr(t *testing.T) {
	tab := seqTable(
		[]int64{1, 1, 2, 3, 3, 3},
		[]int64{1, 2, 1, 1, 2, 3},
		[]xqt.Item{xqt.Int(5), xqt.Int(7), xqt.Double(2.5), xqt.Int(1), xqt.Int(9), xqt.Int(2)},
	)
	cases := []struct {
		op   AggOp
		want map[int64]xqt.Item
	}{
		{AggCount, map[int64]xqt.Item{1: xqt.Int(2), 2: xqt.Int(1), 3: xqt.Int(3)}},
		{AggSum, map[int64]xqt.Item{1: xqt.Int(12), 2: xqt.Double(2.5), 3: xqt.Int(12)}},
		{AggMin, map[int64]xqt.Item{1: xqt.Int(5), 2: xqt.Double(2.5), 3: xqt.Int(1)}},
		{AggMax, map[int64]xqt.Item{1: xqt.Int(7), 2: xqt.Double(2.5), 3: xqt.Int(9)}},
		{AggAvg, map[int64]xqt.Item{1: xqt.Double(6), 2: xqt.Double(2.5), 3: xqt.Double(4)}},
	}
	for _, c := range cases {
		a := &Aggr{unary: unary{In: &Lit{Tab: tab}}, Part: "iter", Op: c.op, Arg: "item", Out: "v"}
		out := run(t, a)
		if out.N != 3 {
			t.Fatalf("aggr %d: %d groups", c.op, out.N)
		}
		for i := 0; i < out.N; i++ {
			p := out.Ints("iter")[i]
			if got := out.Items("v")[i]; got != c.want[p] {
				t.Errorf("aggr op=%d part=%d: got %+v want %+v", c.op, p, got, c.want[p])
			}
		}
	}
}

// Unclustered partitions (a group's rows not adjacent) aggregate like
// clustered ones, one output row per group in first-appearance order.
func TestAggrUnclustered(t *testing.T) {
	part := []int64{3, 1, 3, 2, 1, 3, 3}
	items := []xqt.Item{xqt.Int(1), xqt.Int(5), xqt.Int(9), xqt.Double(2.5), xqt.Int(7), xqt.Int(2), xqt.Int(4)}
	tab := seqTable(part, make([]int64, len(part)), items)
	for op, want := range map[AggOp][]xqt.Item{
		AggCount: {xqt.Int(4), xqt.Int(2), xqt.Int(1)},
		AggSum:   {xqt.Int(16), xqt.Int(12), xqt.Double(2.5)},
		AggMax:   {xqt.Int(9), xqt.Int(7), xqt.Double(2.5)},
	} {
		out := run(t, &Aggr{unary: unary{In: &Lit{Tab: tab}}, Part: "iter", Op: op, Arg: "item", Out: "v"})
		if fmt.Sprint(out.Ints("iter")) != "[3 1 2]" || !slices.Equal(out.Items("v"), want) {
			t.Errorf("aggr op=%d: parts %v values %v, want [3 1 2] %v", op, out.Ints("iter"), out.Items("v"), want)
		}
	}
}

func TestExistJoinEq(t *testing.T) {
	// Figure 8(a): eq join with duplicate elimination
	l := seqTable([]int64{1, 2, 2}, []int64{1, 1, 2},
		[]xqt.Item{xqt.Int(20), xqt.Int(30), xqt.Int(20)})
	r := seqTable([]int64{1, 1, 2, 2}, []int64{1, 2, 1, 2},
		[]xqt.Item{xqt.Int(20), xqt.Int(20), xqt.Int(10), xqt.Int(30)})
	j := &ExistJoin{binary: binary{L: &Lit{Tab: l}, R: &Lit{Tab: r}},
		Cmp: xqt.CmpEq, LIter: "iter", LItem: "item", RIter: "iter", RItem: "item",
		Out1: "iter1", Out2: "iter2"}
	out := run(t, j)
	want := [][2]int64{{1, 1}, {2, 1}, {2, 2}}
	if out.N != len(want) {
		t.Fatalf("eq join pairs: %d, want %d\n%s", out.N, len(want), out)
	}
	for i, w := range want {
		if out.Ints("iter1")[i] != w[0] || out.Ints("iter2")[i] != w[1] {
			t.Errorf("pair %d: (%d,%d) want %v", i, out.Ints("iter1")[i], out.Ints("iter2")[i], w)
		}
	}
}

func TestExistJoinLt(t *testing.T) {
	// Figure 8(b): lt join after min/max aggregation
	l := seqTable([]int64{1, 2}, []int64{1, 1},
		[]xqt.Item{xqt.Int(1), xqt.Int(15)}) // min per iter
	r := seqTable([]int64{1, 2}, []int64{1, 1},
		[]xqt.Item{xqt.Int(10), xqt.Int(30)}) // max per iter
	j := &ExistJoin{binary: binary{L: &Lit{Tab: l}, R: &Lit{Tab: r}},
		Cmp: xqt.CmpLt, LIter: "iter", LItem: "item", RIter: "iter", RItem: "item",
		Out1: "iter1", Out2: "iter2"}
	out := run(t, j)
	want := [][2]int64{{1, 1}, {1, 2}, {2, 2}}
	if out.N != len(want) {
		t.Fatalf("%d pairs want %d", out.N, len(want))
	}
	for i, w := range want {
		if out.Ints("iter1")[i] != w[0] || out.Ints("iter2")[i] != w[1] {
			t.Errorf("pair %d: (%d,%d) want %v", i, out.Ints("iter1")[i], out.Ints("iter2")[i], w)
		}
	}
}

func TestExistJoinUntypedVsNumeric(t *testing.T) {
	// untyped "20" must join numerically with integer 20
	l := seqTable([]int64{1}, []int64{1}, []xqt.Item{xqt.Untyped("20")})
	r := seqTable([]int64{1}, []int64{1}, []xqt.Item{xqt.Int(20)})
	j := &ExistJoin{binary: binary{L: &Lit{Tab: l}, R: &Lit{Tab: r}},
		Cmp: xqt.CmpEq, LIter: "iter", LItem: "item", RIter: "iter", RItem: "item",
		Out1: "a", Out2: "b"}
	out := run(t, j)
	if out.N != 1 {
		t.Errorf("untyped/numeric eq join: %d pairs, want 1", out.N)
	}
}

func TestStepChild(t *testing.T) {
	pool := store.NewPool()
	c, err := store.Shred("d", strings.NewReader(`<a><b/><c><b/></c></a>`), false)
	if err != nil {
		t.Fatal(err)
	}
	pool.Register(c)
	tr := store.NewContainer("")
	pool.Register(tr)
	// context: <a> (pre 1) in iterations 1 and 2
	ctx := NewTable([]string{"iter", "item"}, []ColKind{KInt, KItem})
	ctx.N = 2
	ctx.Col("iter").Int = []int64{1, 2}
	ctx.Col("item").Item = ItemsOf(xqt.Node(c.ID, 1), xqt.Node(c.ID, 1))
	st := &Step{unary: unary{In: &Lit{Tab: ctx}}, Axis: scj.Child,
		Test: scj.Test{Kind: scj.TestElem, Name: "b"}, IterCol: "iter", ItemCol: "item"}
	ex := NewExec(pool, tr)
	out, err := ex.Run(st)
	if err != nil {
		t.Fatal(err)
	}
	if out.N != 2 { // <b> at pre 2 for both iterations
		t.Fatalf("step result: %d rows\n%s", out.N, out)
	}
	if out.Items("item")[0].Pre() != 2 || out.Ints("iter")[1] != 2 {
		t.Errorf("step output wrong: %s", out)
	}
}

func TestStepRejectsUnsortedInput(t *testing.T) {
	pool := store.NewPool()
	c, _ := store.Shred("d", strings.NewReader(`<a><b/></a>`), false)
	pool.Register(c)
	ctx := NewTable([]string{"iter", "item"}, []ColKind{KInt, KItem})
	ctx.N = 2
	ctx.Col("iter").Int = []int64{1, 1}
	ctx.Col("item").Item = ItemsOf(xqt.Node(c.ID, 2), xqt.Node(c.ID, 1))
	st := &Step{unary: unary{In: &Lit{Tab: ctx}}, Axis: scj.Child,
		Test: scj.Test{Kind: scj.TestNode}, IterCol: "iter", ItemCol: "item"}
	ex := NewExec(pool, nil)
	if _, err := ex.Run(st); err == nil {
		t.Fatal("expected sort-contract violation error")
	}
}

func TestElemConstruct(t *testing.T) {
	pool := store.NewPool()
	src, _ := store.Shred("d", strings.NewReader(`<x><y>inner</y></x>`), false)
	pool.Register(src)
	tr := store.NewContainer("")
	pool.Register(tr)
	loop := intTable("iter", 1, 2)
	content := seqTable(
		[]int64{1, 1, 2},
		[]int64{1, 2, 1},
		[]xqt.Item{xqt.Str("hello"), xqt.Node(src.ID, 2), xqt.Int(42)},
	)
	aval := seqTable([]int64{1, 2}, []int64{1, 1},
		[]xqt.Item{xqt.Str("a1"), xqt.Str("a2")})
	ec := &ElemConstruct{Loop: &Lit{Tab: loop}, Content: &Lit{Tab: content},
		Attrs: []AttrSpec{{Attr: "k", Parts: []Plan{&Lit{Tab: aval}}}}, Tag: "out"}
	ex := NewExec(pool, tr)
	res, err := ex.Run(ec)
	if err != nil {
		t.Fatal(err)
	}
	if res.N != 2 {
		t.Fatalf("constructed %d elements", res.N)
	}
	var sb strings.Builder
	store.Serialize(&sb, tr, int32(res.Items("item")[0].I))
	if want := `<out k="a1">hello<y>inner</y></out>`; sb.String() != want {
		t.Errorf("elem 1: %s want %s", sb.String(), want)
	}
	sb.Reset()
	store.Serialize(&sb, tr, int32(res.Items("item")[1].I))
	if want := `<out k="a2">42</out>`; sb.String() != want {
		t.Errorf("elem 2: %s want %s", sb.String(), want)
	}
}

func TestEBVAndCardCheck(t *testing.T) {
	tab := seqTable(
		[]int64{1, 2, 3, 3},
		[]int64{1, 1, 1, 2},
		[]xqt.Item{xqt.Bool(false), xqt.Str("x"), xqt.Int(1), xqt.Int(2)},
	)
	ebv := &EBV{unary: unary{In: &Lit{Tab: tab}}, Part: "iter", Item: "item", Out: "b"}
	pool := store.NewPool()
	ex := NewExec(pool, nil)
	out, err := ex.Run(ebv)
	if err == nil {
		t.Fatalf("EBV of 2-atom group must error, got %v", out)
	}
	tab2 := seqTable([]int64{1, 2}, []int64{1, 1},
		[]xqt.Item{xqt.Bool(false), xqt.Str("x")})
	out, err = NewExec(pool, nil).Run(&EBV{unary: unary{In: &Lit{Tab: tab2}}, Part: "iter", Item: "item", Out: "b"})
	if err != nil {
		t.Fatal(err)
	}
	if out.Bools("b")[0] != false || out.Bools("b")[1] != true {
		t.Errorf("EBV: %v", out.Bools("b"))
	}
	cc := &CardCheck{unary: unary{In: &Lit{Tab: tab}}, Part: "iter", AtMostOne: true, Fn: "fn:zero-or-one"}
	if _, err := NewExec(pool, nil).Run(cc); err == nil {
		t.Error("CardCheck must reject the 2-row group")
	}
}

func TestCountOps(t *testing.T) {
	l := &Lit{Tab: intTable("k", 1)}
	j := NewHashJoin(l, l, "k", "k", Refs("k"), nil)
	p := NewProject(j, "k")
	ops, joins := CountOps(p)
	if ops != 3 || joins != 1 {
		t.Errorf("CountOps = %d, %d", ops, joins)
	}
}

func TestCrossLimit(t *testing.T) {
	big := make([]int64, 10000)
	l := intTable("a", big...)
	r := intTable("b", big...)
	cr := &Cross{binary: binary{L: &Lit{Tab: l}, R: &Lit{Tab: r}},
		LCols: Refs("a"), RCols: Refs("b")}
	pool := store.NewPool()
	if _, err := NewExec(pool, nil).Run(cr); err == nil {
		t.Error("oversized cross product must fail")
	}
}
