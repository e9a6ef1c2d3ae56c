package ralg

import (
	"fmt"
	"math/rand"
	"testing"

	"mxq/internal/sched"
	"mxq/internal/store"
	"mxq/internal/testutil"
	"mxq/internal/xqt"
)

func TestSplitRows(t *testing.T) {
	cases := []struct {
		n, chunks int
		want      [][2]int
	}{
		{0, 4, nil},
		{5, 1, [][2]int{{0, 5}}},
		{5, 2, [][2]int{{0, 2}, {2, 5}}},
		{6, 3, [][2]int{{0, 2}, {2, 4}, {4, 6}}},
		{3, 8, [][2]int{{0, 1}, {1, 2}, {2, 3}}},
	}
	for _, tc := range cases {
		got := splitRuns(tc.n, tc.chunks, nil)
		if fmt.Sprint(got) != fmt.Sprint(tc.want) {
			t.Errorf("splitRuns(%d, %d, nil) = %v, want %v", tc.n, tc.chunks, got, tc.want)
		}
	}
}

func TestSplitRuns(t *testing.T) {
	cut := func(part []int64) func(int) bool {
		return func(i int) bool { return part[i] != part[i-1] }
	}
	cases := []struct {
		name   string
		part   []int64
		chunks int
		want   [][2]int
	}{
		{"empty input", nil, 4, nil},
		{"single iter collapses to one chunk", []int64{1, 1, 1, 1, 1, 1}, 3, [][2]int{{0, 6}}},
		{"boundary exactly on chunk edge", []int64{1, 1, 2, 2}, 2, [][2]int{{0, 2}, {2, 4}}},
		{"boundary pushed past chunk edge", []int64{1, 1, 1, 2, 2, 3}, 3, [][2]int{{0, 3}, {3, 5}, {5, 6}}},
		// cuts only move forward: a long run starting before the first
		// natural cut swallows the rest into one chunk
		{"long run swallows following chunks", []int64{1, 2, 2, 2, 2, 2}, 3, [][2]int{{0, 6}}},
	}
	for _, tc := range cases {
		got := splitRuns(len(tc.part), tc.chunks, cut(tc.part))
		if fmt.Sprint(got) != fmt.Sprint(tc.want) {
			t.Errorf("%s: splitRuns = %v, want %v", tc.name, got, tc.want)
		}
		// every chunk must start at a run boundary and cover all rows
		for i, r := range got {
			if r[0] > 0 && tc.part[r[0]] == tc.part[r[0]-1] {
				t.Errorf("%s: chunk %d starts mid-run at %d", tc.name, i, r[0])
			}
		}
	}
}

func TestParOptionsThreshold(t *testing.T) {
	cases := []struct {
		p    ParOptions
		n    int
		want bool
	}{
		{ParOptions{Workers: 4, Threshold: 10}, 10, true},
		{ParOptions{Workers: 4, Threshold: 10}, 9, false}, // below threshold: serial fallback
		{ParOptions{Workers: 1, Threshold: 1}, 1000, false},
		{ParOptions{}, 1000, false},
		{ParOptions{Workers: 4}, 1000, false}, // zero threshold disables
	}
	for _, tc := range cases {
		if got := tc.p.on(tc.n); got != tc.want {
			t.Errorf("%+v.on(%d) = %v, want %v", tc.p, tc.n, got, tc.want)
		}
	}
}

// tablesEqual compares two tables column by column (schema, kinds and
// payloads; items by value).
func tablesEqual(a, b *Table) bool {
	if a.N != b.N || len(a.names) != len(b.names) {
		return false
	}
	for i, name := range a.names {
		if b.names[i] != name {
			return false
		}
		ca, cb := &a.cols[i], &b.cols[i]
		if ca.Kind != cb.Kind {
			return false
		}
		for r := 0; r < a.N; r++ {
			switch ca.Kind {
			case KInt:
				if ca.Int[r] != cb.Int[r] {
					return false
				}
			case KBool:
				if ca.Bool[r] != cb.Bool[r] {
					return false
				}
			default:
				if ca.Item.At(r) != cb.Item.At(r) {
					return false
				}
			}
		}
	}
	return true
}

// runWith evaluates p with the given parallel options on a fresh pool.
func runWith(t *testing.T, p Plan, par ParOptions) *Table {
	t.Helper()
	pool := store.NewPool()
	tr := store.NewContainer("")
	pool.Register(tr)
	ex := NewExec(pool, tr)
	ex.Par = par
	tab, err := ex.Run(p)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return tab
}

// TestParallelOperatorsMatchSerial runs every parallelized operator over
// randomized inputs with the parallel machinery forced on (threshold 1)
// and asserts byte-identical output to serial execution.
func TestParallelOperatorsMatchSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	par := ParOptions{Workers: 4, Threshold: 1, Slots: testutil.ForkPool(t, 4)}

	const n = 257 // odd size so chunk edges land mid-run
	iters := make([]int64, n)
	vals := make([]int64, n)
	items := make([]xqt.Item, n)
	bools := make([]bool, n)
	cur := int64(1)
	for i := 0; i < n; i++ {
		if rng.Intn(3) == 0 {
			cur++
		}
		iters[i] = cur
		vals[i] = int64(rng.Intn(50))
		items[i] = xqt.Int(int64(rng.Intn(40)))
		bools[i] = rng.Intn(2) == 0
	}
	tab := NewTable([]string{"iter", "v", "item", "b"}, []ColKind{KInt, KInt, KItem, KBool})
	tab.N = n
	tab.Col("iter").Int = iters
	tab.Col("v").Int = vals
	tab.Col("item").Item = NewItemVec(items)
	tab.Col("b").Bool = bools
	in := &Lit{Tab: tab}

	rtab := NewTable([]string{"rk", "rv"}, []ColKind{KInt, KInt})
	rtab.N = 64
	for j := 0; j < 64; j++ {
		rtab.Col("rk").Int = append(rtab.Col("rk").Int, int64(j/2))
		rtab.Col("rv").Int = append(rtab.Col("rv").Int, int64(j)*10)
	}
	rin := &Lit{Tab: rtab}

	plans := map[string]Plan{
		"select":          &Select{unary: unary{In: in}, Cond: "b"},
		"select-neg":      &Select{unary: unary{In: in}, Cond: "b", Neg: true},
		"rownum-stream":   &RowNum{unary: unary{In: in}, Out: "r", Part: "iter", Mode: RankStream},
		"rownum-seq":      &RowNum{unary: unary{In: in}, Out: "r", Part: "iter", Mode: RankSeq},
		"rownum-global":   &RowNum{unary: unary{In: in}, Out: "r", Mode: RankStream},
		"rownum-sort":     &RowNum{unary: unary{In: in}, Out: "r", OrderBy: []string{"v"}, Part: "iter", Mode: RankSort},
		"aggr-count":      &Aggr{unary: unary{In: in}, Part: "iter", Op: AggCount, Out: "c"},
		"aggr-sum":        &Aggr{unary: unary{In: in}, Part: "iter", Op: AggSum, Arg: "item", Out: "s"},
		"aggr-min":        &Aggr{unary: unary{In: in}, Part: "iter", Op: AggMin, Arg: "item", Out: "m"},
		"aggr-max":        &Aggr{unary: unary{In: in}, Part: "iter", Op: AggMax, Arg: "item", Out: "m"},
		"aggr-avg":        &Aggr{unary: unary{In: in}, Part: "iter", Op: AggAvg, Arg: "item", Out: "a"},
		"fun-add":         NewFun(in, FunAdd, "o", "item", "item"),
		"fun-eq":          NewFun(in, FunEq, "o", "v", "item"),
		"fun-not":         NewFun(in, FunNot, "o", "b"),
		"fun-concat":      NewFun(in, FunConcat, "o", "item", "item"),
		"hashjoin":        NewHashJoin(in, rin, "v", "rk", Refs("iter", "v"), Refs("rv")),
		"hashjoin-posl":   &HashJoin{binary: binary{L: in, R: rtab2(rin)}, LKey: "iter", RKey: "rk2", LCols: Refs("v"), RCols: Refs("rv2"), PosLeft: true},
		"sort-then-merge": &Distinct{unary: unary{In: &Sort{unary: unary{In: in}, By: []string{"v"}}}, By: []string{"v"}, Merge: true},
	}
	for name, p := range plans {
		serial := runWith(t, p, ParOptions{})
		parallel := runWith(t, p, par)
		if !tablesEqual(serial, parallel) {
			t.Errorf("%s: parallel output differs from serial\nserial:\n%s\nparallel:\n%s",
				name, serial, parallel)
		}
	}
}

// rtab2 wraps a positional-join right side whose key is dense ascending.
func rtab2(in Plan) Plan {
	tab := NewTable([]string{"rk2", "rv2"}, []ColKind{KInt, KInt})
	tab.N = 32
	for j := 0; j < 32; j++ {
		tab.Col("rk2").Int = append(tab.Col("rk2").Int, int64(j+1))
		tab.Col("rv2").Int = append(tab.Col("rv2").Int, int64(j)*7)
	}
	return &Lit{Tab: tab}
}

// Unclustered part columns must fall back to the serial hash-counter and
// hash-aggregation paths — one chunk, so no worker is ever drawn — and
// still agree.
func TestParallelUnclusteredFallback(t *testing.T) {
	slots := sched.NewPool(4)
	par := ParOptions{Workers: 4, Threshold: 1, Slots: slots}
	tab := NewTable([]string{"part", "item"}, []ColKind{KInt, KItem})
	parts := []int64{3, 1, 3, 2, 1, 3, 2, 1, 3, 1}
	for i, p := range parts {
		tab.Col("part").Int = append(tab.Col("part").Int, p)
		tab.Col("item").Item.Append(xqt.Int(int64(i)))
	}
	tab.N = len(parts)
	in := &Lit{Tab: tab}
	for name, p := range map[string]Plan{
		"rownum-stream": &RowNum{unary: unary{In: in}, Out: "r", Part: "part", Mode: RankStream},
		"aggr-sum":      &Aggr{unary: unary{In: in}, Part: "part", Op: AggSum, Arg: "item", Out: "s"},
	} {
		serial := runWith(t, p, ParOptions{})
		parallel := runWith(t, p, par)
		if !tablesEqual(serial, parallel) {
			t.Errorf("%s: unclustered parallel output differs\nserial:\n%s\nparallel:\n%s", name, serial, parallel)
		}
	}
	if n := slots.MaxInUse(); n != 0 {
		t.Errorf("unclustered input forked %d workers", n)
	}
}

func TestParallelAttrStep(t *testing.T) {
	b := store.NewBuilder("a.xml")
	b.StartDoc()
	b.StartElem("root")
	for i := 0; i < 40; i++ {
		b.StartElem("e")
		b.Attr("id", fmt.Sprintf("v%d", i))
		b.Attr("k", fmt.Sprintf("%d", i%3))
		b.End()
	}
	b.End()
	b.End()
	c, err := b.Done()
	if err != nil {
		t.Fatal(err)
	}
	pool := store.NewPool()
	pool.Register(c)
	tab := NewTable([]string{"iter", "item"}, []ColKind{KInt, KItem})
	// every element twice (two iters), plus the same node repeated within a run
	it := int64(1)
	for p := int32(0); p < int32(c.Len()); p++ {
		if c.Kind[p] != store.KindElem || c.NameOf(p) != "e" {
			continue
		}
		tab.Col("iter").Int = append(tab.Col("iter").Int, it, it+1)
		tab.Col("item").Item.Append(xqt.Node(c.ID, p))
		tab.Col("item").Item.Append(xqt.Node(c.ID, p))
	}
	tab.N = tab.Col("iter").Len()
	slots := testutil.ForkPool(t, 3)
	for _, nametest := range []string{"", "id"} {
		n := &AttrStep{unary: unary{In: &Lit{Tab: tab}}, NameTest: nametest, IterCol: "iter", ItemCol: "item"}
		exS := NewExec(pool, nil)
		serial, err := exS.execAttrStep(n, tab)
		if err != nil {
			t.Fatal(err)
		}
		exP := NewExec(pool, nil)
		exP.Par = ParOptions{Workers: 3, Threshold: 1, Slots: slots}
		parallel, err := exP.execAttrStep(n, tab)
		if err != nil {
			t.Fatal(err)
		}
		if !tablesEqual(serial, parallel) {
			t.Errorf("attrstep(%q): parallel differs\nserial:\n%s\nparallel:\n%s", nametest, serial, parallel)
		}
	}
}
