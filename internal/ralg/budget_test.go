package ralg

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"mxq/internal/scj"
	"mxq/internal/store"
	"mxq/internal/testutil"
	"mxq/internal/xqerr"
	"mxq/internal/xqt"
)

// budgetPlans is one plan per operator family over inputs large enough
// to go through the arena and, at threshold 1, through every chunked
// path: the table TestBudgetIsTheMeter runs over.
func budgetPlans(t *testing.T) (*store.Pool, map[string]Plan) {
	t.Helper()
	var sb strings.Builder
	sb.WriteString("<d>")
	for i := 0; i < 1500; i++ {
		fmt.Fprintf(&sb, `<e k="%d" v="%d.5"><f>t%d</f></e>`, i%7, i%11, i)
	}
	sb.WriteString("</d>")
	c, err := store.Shred("d.xml", strings.NewReader(sb.String()), false)
	if err != nil {
		t.Fatal(err)
	}
	pool := store.NewPool()
	pool.Register(c)

	const n = 3000
	rng := rand.New(rand.NewSource(3))
	iters, keys, unsorted := make([]int64, n), make([]int64, n), make([]int64, n)
	ints, doubles, mixed := make([]xqt.Item, n), make([]xqt.Item, n), make([]xqt.Item, n)
	for i := range iters {
		iters[i], keys[i], unsorted[i] = int64(i/3+1), int64(rng.Intn(n/2)), int64(rng.Intn(1<<40))
		ints[i], doubles[i] = xqt.Int(int64(rng.Intn(50))), xqt.Double(rng.Float64()*100)
		if mixed[i] = ints[i]; i%3 == 1 {
			mixed[i] = doubles[i]
		} else if i%3 == 2 {
			mixed[i] = xqt.Str(fmt.Sprint(i % 40))
		}
	}
	seq := func(items []xqt.Item) *Table {
		tab := NewTable([]string{"iter", "key", "big", "item"}, []ColKind{KInt, KInt, KInt, KItem})
		tab.N = n
		tab.Col("iter").Int, tab.Col("key").Int, tab.Col("big").Int = iters, keys, unsorted
		tab.Col("item").Item = NewItemVec(items)
		return tab
	}
	lit := func(items []xqt.Item) Plan { return &Lit{Tab: seq(items)} }
	small := func(items []xqt.Item) Plan { // 150 rows: one side of the quadratic joins
		tab := seqTable(iters[:150], keys[:150], items[:150])
		return &Lit{Tab: tab}
	}

	step := &Step{unary: unary{In: &DocRoot{Doc: "d.xml"}}, Axis: scj.Descendant,
		Test: scj.Test{Kind: scj.TestElem, Name: "e"}, Variant: scj.LoopLifted, IterCol: "pos", ItemCol: "item"}
	child := &Step{unary: unary{In: step}, Axis: scj.Child,
		Test: scj.Test{Kind: scj.TestNode}, Variant: scj.LoopLifted, IterCol: "iter", ItemCol: "item"}
	exist := func(cmp xqt.CmpOp, l, r Plan) Plan {
		return &ExistJoin{binary: binary{L: l, R: r}, Cmp: cmp, LIter: "iter", LItem: "item", RIter: "iter", RItem: "item", Out1: "i1", Out2: "i2"}
	}
	// one element per e, holding a copy of it: loop and content in iter order
	loop := NewProject(&RowNum{unary: unary{In: step}, Out: "n"}, "n->iter")
	content := NewProject(AttachInt(&RowNum{unary: unary{In: step}, Out: "n"}, "pos", 1), "n->iter", "pos", "item")
	return pool, map[string]Plan{
		"step":        child,
		"attrstep":    &AttrStep{unary: unary{In: step}, IterCol: "iter", ItemCol: "item"},
		"hashjoin":    NewHashJoin(lit(ints), lit(doubles), "key", "key", Refs("iter", "item"), Refs("big")),
		"exist-hash":  exist(xqt.CmpEq, lit(ints), lit(mixed)),
		"exist-theta": exist(xqt.CmpLt, small(doubles), lit(doubles)),
		"exist-pairs": exist(xqt.CmpNe, small(ints), small(mixed)),
		"cross":       &Cross{binary: binary{L: small(ints), R: small(doubles)}, LCols: Refs("iter"), RCols: Refs("item")},
		"rangegen":    &RangeGen{unary: unary{In: NewFun(lit(ints), FunAdd, "hi", "item", "item")}, Iter: "iter", Lo: "item", Hi: "hi"},
		"sort":        NewSort(lit(ints), "big"),
		"sort-items":  NewSort(lit(mixed), "item", "big"),
		"distinct":    &Distinct{unary: unary{In: lit(mixed)}, By: []string{"item"}},
		"diff-sparse": &Diff{binary: binary{L: lit(ints), R: lit(doubles)}, LKey: "key", RKey: "big"},
		"aggr-sum":    &Aggr{unary: unary{In: lit(doubles)}, Part: "iter", Op: AggSum, Arg: "item", Out: "s"},
		"aggr-mixed":  &Aggr{unary: unary{In: lit(mixed)}, Part: "key", Op: AggMax, Arg: "item", Out: "m"},
		"rownum-map":  &RowNum{unary: unary{In: lit(ints)}, Out: "r", Part: "big", Mode: RankStream},
		"fun":         NewFun(lit(doubles), FunAdd, "s", "item", "item"),
		"fun-mixed":   NewFun(lit(mixed), FunStringOf, "s", "item"),
		"elem":        &ElemConstruct{Loop: loop, Content: content, Tag: "r"},
		"union":       &Union{Ins: []Plan{lit(ints), lit(mixed), lit(doubles)}},
		"select-fun":  &Select{unary: unary{In: NewFun(AttachItem(lit(doubles), "c", xqt.Double(50)), FunLt, "b", "item", "c")}, Cond: "b"},
		"ebv":         &EBV{unary: unary{In: NewProject(&RowNum{unary: unary{In: lit(ints)}, Out: "n"}, "n->iter", "item")}, Part: "iter", Item: "item", Out: "b"},
	}
}

// renderTable writes every cell of tab, nodes as the XML they serialize to.
func renderTable(pool *store.Pool, tab *Table) string {
	var sb strings.Builder
	for r := 0; r < tab.N; r++ {
		for i := range tab.cols {
			switch c := &tab.cols[i]; c.Kind {
			case KInt:
				fmt.Fprint(&sb, c.Int[r], " ")
			case KBool:
				fmt.Fprint(&sb, c.Bool[r], " ")
			default:
				switch it := c.Item.At(r); it.K {
				case xqt.KNode:
					store.Serialize(&sb, pool.Get(it.Cont), int32(it.I))
				case xqt.KAttr:
					fmt.Fprintf(&sb, "@%d:%d ", it.Cont, it.I)
				default:
					fmt.Fprintf(&sb, "%d:%s ", it.K, it.AsString())
				}
			}
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// TestBudgetIsTheMeter is the budget's one property, per operator family
// and serial or forced parallel: the peak an unlimited run reports is
// what the plan needs — half of it fails with the typed error and no
// table, twice it returns the same bytes — and every execution gives its
// arena back.
func TestBudgetIsTheMeter(t *testing.T) {
	pool, plans := budgetPlans(t)
	runUnder := func(p Plan, par ParOptions, limit int64) (string, int64, error) {
		qp := pool.Snapshot()
		tr := store.NewContainer("")
		qp.Register(tr)
		e := NewExec(qp, tr)
		defer e.Release()
		e.Par, e.Mem = par, NewMemBudget(limit)
		tab, err := e.Run(p)
		if err != nil {
			if tab != nil {
				t.Errorf("a failed run returned a table of %d rows", tab.N)
			}
			return "", 0, err
		}
		return renderTable(qp, tab), e.Mem.HighWater(), nil
	}
	slots := testutil.ForkPool(t, 4)
	for name, p := range plans {
		for _, par := range []ParOptions{{}, {Workers: 4, Threshold: 1, Slots: slots}} {
			want, peak, err := runUnder(p, par, 1<<50)
			if err != nil || peak == 0 || want == "" {
				t.Fatalf("%s %+v: unlimited run: peak %d, %d bytes of output, err %v", name, par, peak, len(want), err)
			}
			if _, _, err := runUnder(p, par, peak/2); !xqerr.IsResourceLimit(err) {
				t.Errorf("%s %+v: half of the %d-byte peak: err = %v, want %s", name, par, peak, err, xqerr.CodeResourceLimit)
			}
			if got, again, err := runUnder(p, par, 2*peak); err != nil || got != want || again != peak {
				t.Errorf("%s %+v: under twice the %d-byte peak: err %v, peak %d, same output %v", name, par, peak, err, again, got == want)
			}
			if live := LiveArenas(); live != 0 {
				t.Fatalf("%s %+v: %d arenas still out", name, par, live)
			}
		}
	}
}
