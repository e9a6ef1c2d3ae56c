package ralg

import (
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"

	"mxq/internal/scj"
	"mxq/internal/store"
	"mxq/internal/xqt"
)

func intTable(name string, vals ...int64) *Table {
	return tableOf([]string{name}, BindInts(vals...))
}

func seqTable(iters []int64, poss []int64, items []xqt.Item) *Table {
	return tableOf([]string{"iter", "pos", "item"}, BindInts(iters...), BindInts(poss...), NewItemVec(items))
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
	tab.AddCol("c", BindBools(true, false, true, false))
	in := &Lit{Tab: tab}
	sel := &Select{unary: unary{In: in}, Cond: "c"}
	out := run(t, sel)
	if out.N != 2 || out.Ints("iter")[0] != 1 || out.Ints("iter")[1] != 3 {
		t.Errorf("select: %v", out)
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
	tab := NewTable([]string{"part", "v"}, []xqt.Kind{xqt.KInt, xqt.KInt})
	tab.N = 6
	*tab.Col("part") = BindInts(1, 2, 1, 2, 1, 3)
	*tab.Col("v") = BindInts(30, 10, 10, 20, 20, 5)

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
	tab2 := NewTable([]string{"part"}, []xqt.Kind{xqt.KInt})
	tab2.N = 5
	*tab2.Col("part") = BindInts(1, 1, 2, 2, 2)
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
	tab := NewTable([]string{"a", "b"}, []xqt.Kind{xqt.KInt, xqt.KInt})
	tab.N = 6
	*tab.Col("a") = BindInts(1, 1, 1, 2, 2, 3) // already sorted
	*tab.Col("b") = BindInts(3, 1, 2, 2, 1, 1)
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
	// the right keys 1, 2, 3 are a run (a positional lookup), 3, 1, 2
	// are not (a hash join); both give the same pairs
	for _, keys := range [][]int64{{1, 2, 3}, {3, 1, 2}} {
		r := NewTable([]string{"k2", "v"}, []xqt.Kind{xqt.KInt, xqt.KInt})
		r.N = 3
		*r.Col("k2") = BindInts(keys...)
		*r.Col("v") = BindInts(keys[0]*10, keys[1]*10, keys[2]*10)
		j := NewHashJoin(&Lit{Tab: l}, &Lit{Tab: r}, "k", "k2",
			Refs("k"), Refs("v"))
		out := run(t, j)
		wantV := []int64{30, 10, 20, 30}
		for i, w := range wantV {
			if out.Ints("v")[i] != w {
				t.Errorf("join on right keys %v row %d: v=%d want %d", keys, i, out.Ints("v")[i], w)
			}
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
	ds := &Distinct{unary: unary{In: &Lit{Tab: sorted}}, By: []string{"k"}}
	out = run(t, ds)
	if out.N != 3 || out.Ints("k")[1] != 2 {
		t.Errorf("distinct of a sorted input: %v", out.Ints("k"))
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
	ctx := NewTable([]string{"iter", "item"}, []xqt.Kind{xqt.KInt, xqt.KUntyped})
	ctx.N = 2
	*ctx.Col("iter") = BindInts(1, 2)
	*ctx.Col("item") = ItemsOf(xqt.Node(c.ID, 1), xqt.Node(c.ID, 1))
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
	ctx := NewTable([]string{"iter", "item"}, []xqt.Kind{xqt.KInt, xqt.KUntyped})
	ctx.N = 2
	*ctx.Col("iter") = BindInts(1, 1)
	*ctx.Col("item") = ItemsOf(xqt.Node(c.ID, 2), xqt.Node(c.ID, 1))
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
	ec := &ElemConstruct{Ins: []Plan{&Lit{Tab: loop}, &Lit{Tab: aval}, &Lit{Tab: content}}, Template: []CtorTok{
		{Kind: TokStart, Tag: "out", Attrs: []AttrSpec{{Attr: "k", Parts: 1}}}, {Kind: TokPart}, {Kind: TokEnd}}}
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

// A run of atoms becomes one text node built in one growing buffer: an
// element of n atoms allocates bytes in proportion to n, not a copy of
// the text so far per atom (n²/2 copied bytes). The schedule is not
// marked (MarkByRef), so the constructor builds rows.
func TestElemTextRunIsLinear(t *testing.T) {
	const n = 10000
	iters, poss, items := make([]int64, n), make([]int64, n), make([]xqt.Item, n)
	for i := range items {
		iters[i], poss[i], items[i] = 1, int64(i+1), xqt.Str("atom")
	}
	ec := &ElemConstruct{Ins: []Plan{&Lit{Tab: intTable("iter", 1)}, &Lit{Tab: seqTable(iters, poss, items)}},
		Template: []CtorTok{{Kind: TokStart, Tag: "a"}, {Kind: TokPart}, {Kind: TokEnd}}}
	pool, tr := store.NewPool(), store.NewContainer("")
	pool.Register(tr)
	ex := NewExec(pool, tr)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err := ex.RunSchedule(NewSchedule(ec))
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 64*n {
		t.Errorf("one element of %d atoms allocated %d bytes, want at most %d", n, got, 64*n)
	}
	if text := tr.StringValue(int32(res.Items("item")[0].I)); len(text) != 5*n-1 || tr.Len() != 2 {
		t.Errorf("%d rows, text of %d bytes; want an element and one text node of %d bytes", tr.Len(), len(text), 5*n-1)
	}
}

func TestEBVAndCardCheck(t *testing.T) {
	tab := seqTable(
		[]int64{1, 2, 3, 3},
		[]int64{1, 1, 1, 2},
		[]xqt.Item{xqt.Bool(false), xqt.Str("x"), xqt.Int(1), xqt.Int(2)},
	)
	ebv := &EBV{unary: unary{In: &Lit{Tab: tab}}, Part: "iter", Item: "item"}
	pool := store.NewPool()
	ex := NewExec(pool, nil)
	out, err := ex.Run(ebv)
	if err == nil {
		t.Fatalf("EBV of 2-atom group must error, got %v", out)
	}
	tab2 := seqTable([]int64{1, 2}, []int64{1, 1},
		[]xqt.Item{xqt.Bool(false), xqt.Str("x")})
	out, err = NewExec(pool, nil).Run(&EBV{unary: unary{In: &Lit{Tab: tab2}}, Part: "iter", Item: "item"})
	if err != nil {
		t.Fatal(err)
	}
	if got := out.Ints("iter"); len(got) != 1 || got[0] != 2 {
		t.Errorf("EBV: the true groups are %v, want [2]", got)
	}
	// with a position column a numeric singleton holds where it equals
	// the position; other groups keep their effective boolean value
	tab3 := seqTable([]int64{1, 2, 3, 4, 5}, []int64{1, 1, 1, 1, 1},
		[]xqt.Item{xqt.Int(2), xqt.Double(2), xqt.Int(0), xqt.Str("x"), xqt.Double(1.5)})
	tab3.AddCol("at", BindInts(1, 2, 3, 1, 1))
	out, err = NewExec(pool, nil).Run(&EBV{unary: unary{In: &Lit{Tab: tab3}}, Part: "iter", Item: "item", Pos: "at"})
	if err != nil {
		t.Fatal(err)
	}
	if got := out.Ints("iter"); !slices.Equal(got, []int64{2, 4}) {
		t.Errorf("EBV at a position: the true groups are %v, want [2 4]", got)
	}
	for _, code := range []string{"XPTY0004", "FORG0003"} {
		cc := &CardCheck{unary: unary{In: &Lit{Tab: tab}}, Part: "iter", Fn: "fn:zero-or-one", Code: code}
		if _, err := NewExec(pool, nil).Run(cc); !strings.Contains(fmt.Sprint(err), code) {
			t.Errorf("CardCheck over a 2-row group raised %v, want %s", err, code)
		}
	}
	// Part need not arrive grouped: a repeat anywhere is a repeat
	ungrouped := func(iters ...int64) Plan {
		return &CardCheck{unary: unary{In: &Lit{Tab: seqTable(iters, []int64{1, 1, 1}, []xqt.Item{xqt.Int(7), xqt.Int(8), xqt.Int(9)})}}, Part: "iter", Fn: "op", Code: "XPTY0004"}
	}
	if _, err := NewExec(pool, nil).Run(ungrouped(1, 2, 1)); !strings.Contains(fmt.Sprint(err), "XPTY0004") {
		t.Errorf("CardCheck over iters [1 2 1] raised %v, want XPTY0004", err)
	}
	if out, err := NewExec(pool, nil).Run(ungrouped(3, 1, 2)); err != nil || !slices.Equal(out.Ints("iter"), []int64{3, 1, 2}) {
		t.Errorf("CardCheck over iters [3 1 2]: %v, %v, want them passed through", out, err)
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

// TestScheduleOrder: NewSchedule numbers every node once, inputs before
// their consumers and the root last, a shared node under one number,
// and reports a nil input as -1 without visiting it.
func TestScheduleOrder(t *testing.T) {
	shared := &Lit{Tab: intTable("k", 1, 2)}
	left, right := NewProject(shared, "k"), &Sort{unary: unary{In: shared}, By: []string{"k"}}
	j := NewHashJoin(left, right, "k", "k", Refs("k"), nil)
	root := NewProject(j, "k")
	s := NewSchedule(root)
	want := []Plan{shared, left, right, j, root}
	if len(s) != len(want) {
		t.Fatalf("%d ops, want %d", len(s), len(want))
	}
	for i, op := range s {
		if op.Plan != want[i] {
			t.Errorf("op %d is %s, want %s", i, op.Plan.Name(), want[i].Name())
		}
		for k, in := range op.In {
			if in < 0 || in >= i || s[in].Plan != op.Plan.Inputs()[k] {
				t.Errorf("op %d (%s): input %d numbered %d", i, op.Plan.Name(), k, in)
			}
		}
	}
	if s[1].In[0] != 0 || s[2].In[0] != 0 {
		t.Errorf("the shared literal is numbered %d and %d, want 0 for both", s[1].In[0], s[2].In[0])
	}
	if s = NewSchedule(&Sort{By: []string{"k"}}); len(s) != 1 || !slices.Equal(s[0].In, []int{-1}) {
		t.Errorf("a nil input: schedule %v, want one op with inputs [-1]", s)
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
