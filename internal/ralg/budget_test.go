package ralg

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"mxq/internal/scj"
	"mxq/internal/store"
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
	nums, strs := make([]xqt.Item, n), make([]xqt.Item, n)
	for i := range iters {
		iters[i], keys[i], unsorted[i] = int64(i/3+1), int64(rng.Intn(n/2)), int64(rng.Intn(1<<40))
		ints[i], doubles[i] = xqt.Int(int64(rng.Intn(50))), xqt.Double(rng.Float64()*100)
		if nums[i], strs[i] = ints[i], xqt.Str(fmt.Sprint("k", keys[i])); i%2 == 1 {
			nums[i] = doubles[i]
		}
		// untyped rather than string rows: fn:max casts them to xs:double,
		// so every group has a common comparison domain
		if mixed[i] = ints[i]; i%3 == 1 {
			mixed[i] = doubles[i]
		} else if i%3 == 2 {
			mixed[i] = xqt.Untyped(fmt.Sprint(i % 40))
		}
	}
	seq := func(items []xqt.Item) *Table {
		return tableOf([]string{"iter", "key", "big", "item"}, uniformIntCol(iters), uniformIntCol(keys), uniformIntCol(unsorted), NewItemVec(items))
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
	exist := func(cmp xqt.CmpOp, l, r Plan) *ExistJoin {
		return &ExistJoin{binary: binary{L: l, R: r}, Cmp: cmp, LIter: "iter", LItem: "item", RIter: "iter", RItem: "item", Out1: "i1", Out2: "i2"}
	}
	// one element per e, holding a copy of it: loop and content in iter order
	loop := NewProject(&RowNum{unary: unary{In: step}, Out: "n"}, "n->iter")
	content := NewProject(AttachInt(&RowNum{unary: unary{In: step}, Out: "n"}, "pos", 1), "n->iter", "pos", "item")
	counted := exist(xqt.CmpGt, lit(doubles), lit(doubles))
	counted.Count = true
	return pool, map[string]Plan{
		"step":        child,
		"attrstep":    &Step{unary: unary{In: step}, Axis: scj.Attribute, Test: scj.Test{Kind: scj.TestNode}, IterCol: "iter", ItemCol: "item"},
		"step-count":  &Step{unary: unary{In: step}, Axis: scj.DescendantOrSelf, Test: scj.Test{Kind: scj.TestNode}, Variant: scj.LoopLifted, IterCol: "iter", ItemCol: "item", Count: true},
		"attr-count":  &Step{unary: unary{In: step}, Axis: scj.Attribute, Test: scj.Test{Kind: scj.TestNode}, IterCol: "iter", ItemCol: "item", Count: true},
		"hashjoin":    NewHashJoin(lit(ints), lit(doubles), "key", "key", Refs("iter", "item"), Refs("big")),
		"exist-hash":  exist(xqt.CmpEq, lit(ints), lit(mixed)),
		"exist-str":   exist(xqt.CmpEq, lit(strs), lit(strs)),
		"exist-num":   exist(xqt.CmpEq, lit(ints), lit(nums)),
		"exist-theta": exist(xqt.CmpLt, small(doubles), lit(doubles)),
		"exist-pairs": exist(xqt.CmpNe, small(ints), small(mixed)),
		"exist-count": counted,
		"cross":       &Cross{binary: binary{L: small(ints), R: small(doubles)}, LCols: Refs("iter"), RCols: Refs("item")},
		"rangegen":    &RangeGen{unary: unary{In: NewFun(lit(ints), FunAdd, "hi", "item", "item")}, Iter: "iter", Lo: "item", Hi: "hi"},
		"sort":        NewSort(lit(ints), "big"),
		"sort-items":  NewSort(lit(mixed), "item", "big"),
		"rank-parts":  &RowNum{unary: unary{In: lit(nums)}, Out: "r", Part: "key", OrderBy: []string{"item"}, Mode: RankSort},
		"distinct":    &Distinct{unary: unary{In: lit(mixed)}, By: []string{"item"}},
		"distinct-2":  &Distinct{unary: unary{In: lit(ints)}, By: []string{"key", "item"}},
		"diff-sparse": &Diff{binary: binary{L: lit(ints), R: lit(doubles)}, LKey: "key", RKey: "big"},
		"cover-sparse": &CoverCheck{binary: binary{L: lit(ints), R: lit(doubles)}, LoopIter: "big", Part: "big",
			Fn: "fn:exactly-one", Code: "FORG0005"},
		"aggr-sum":    &Aggr{unary: unary{In: lit(doubles)}, Part: "iter", Op: AggSum, Arg: "item", Out: "s"},
		"aggr-mixed":  &Aggr{unary: unary{In: lit(mixed)}, Part: "key", Op: AggMax, Arg: "item", Out: "m"},
		"aggr-sparse": &Aggr{unary: unary{In: lit(ints)}, Part: "big", Op: AggSum, Arg: "item", Out: "s"},
		"rownum-map":  &RowNum{unary: unary{In: lit(ints)}, Out: "r", Part: "big", Mode: RankStream},
		"fun":         NewFun(lit(doubles), FunAdd, "s", "item", "item"),
		"fun-mixed":   NewFun(lit(mixed), FunStringOf, "s", "item"),
		"elem":        &ElemConstruct{Ins: []Plan{loop, content}, Template: []CtorTok{{Kind: TokStart, Tag: "r"}, {Kind: TokPart}, {Kind: TokEnd}}},
		"union":       &Union{Ins: []Plan{lit(ints), lit(mixed), lit(doubles)}},
		"select-fun":  &Select{unary: unary{In: NewFun(AttachItem(lit(doubles), "c", xqt.Double(50)), FunLt, "b", "item", "c")}, Cond: "b"},
		"ebv":         &EBV{unary: unary{In: NewProject(&RowNum{unary: unary{In: lit(ints)}, Out: "n"}, "n->iter", "item")}, Part: "iter", Item: "item"},
	}
}

// renderTable writes every cell of tab, nodes as the XML they serialize to.
func renderTable(pool *store.Pool, tab *Table) string {
	var sb strings.Builder
	for r := 0; r < tab.N; r++ {
		for i := range tab.cols {
			switch it := tab.cols[i].At(r); it.K {
			case xqt.KNode:
				store.Serialize(&sb, pool.Get(it.Cont), int32(it.I))
			case xqt.KAttr:
				fmt.Fprintf(&sb, "@%d:%d ", it.Cont, it.I)
			default:
				fmt.Fprintf(&sb, "%d:%s ", it.K, it.AsString())
			}
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// TestBudgetIsTheMeter is the budget's one property, per operator
// family: the peak an unlimited run reports is
// what the plan needs — half of it fails with the typed error and no
// table, twice it returns the same bytes — and every execution gives its
// arena back.
func TestBudgetIsTheMeter(t *testing.T) {
	pool, plans := budgetPlans(t)
	runUnder := func(p Plan, limit int64) (string, int64, error) {
		qp := pool.Snapshot()
		tr := store.NewContainer("")
		qp.Register(tr)
		e := NewExec(qp, tr)
		defer e.Release()
		e.Mem = NewMemBudget(limit)
		tab, err := e.Run(p)
		if err != nil {
			if tab != nil {
				t.Errorf("a failed run returned a table of %d rows", tab.N)
			}
			return "", 0, err
		}
		return renderTable(qp, tab), e.Mem.HighWater(), nil
	}
	for name, p := range plans {
		want, peak, err := runUnder(p, 1<<50)
		if err != nil || peak == 0 || want == "" {
			t.Fatalf("%s: unlimited run: peak %d, %d bytes of output, err %v", name, peak, len(want), err)
		}
		if _, _, err := runUnder(p, peak/2); !xqerr.IsResourceLimit(err) {
			t.Errorf("%s: half of the %d-byte peak: err = %v, want %s", name, peak, err, xqerr.CodeResourceLimit)
		}
		if got, again, err := runUnder(p, 2*peak); err != nil || got != want || again != peak {
			t.Errorf("%s: under twice the %d-byte peak: err %v, peak %d, same output %v", name, peak, err, again, got == want)
		}
		if live := LiveArenas(); live != 0 {
			t.Fatalf("%s: %d arenas still out", name, live)
		}
	}
}

// keyedPlans are the budgetPlans that look rows up by key over inputs
// without xs:string or xs:untypedAtomic rows, whose []string gathers are
// Go heap by design: HashJoin, the existential eq join (double and string
// domains), Diff, CoverCheck, RankStream numbering, unclustered
// aggregation, δ over unordered keys and the sort keys of integers in
// partitions holding a double (a RankSort numbering, which gathers no
// column: a 3 000-row tag vector is under the arena's floor).
var keyedPlans = []string{"hashjoin", "exist-num", "exist-str", "diff-sparse", "cover-sparse",
	"rownum-map", "aggr-sparse", "distinct-2", "rank-parts"}

// TestKeyedOperatorsStayInTheArena: every keyed lookup takes its table
// from the execution's arena, so a warm execution of a keyed plan asks
// the Go heap for little more than its table headers.
func TestKeyedOperatorsStayInTheArena(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime allocates on its own account")
	}
	pool, plans := budgetPlans(t)
	run := func(s Schedule) {
		e := NewExec(pool, nil)
		defer e.Release()
		if _, err := e.RunSchedule(s); err != nil {
			t.Fatal(err)
		}
	}
	for _, name := range keyedPlans {
		s := NewSchedule(plans[name]) // numbered once, as a prepared statement is
		run(s)                        // sizes the arena
		least := uint64(1 << 62)
		for range 3 { // a collection cycle may drop the warm arena: take the best of three
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			run(s)
			runtime.ReadMemStats(&after)
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
		if least > 4<<10 {
			t.Errorf("%s: a warm execution allocates %d bytes of Go heap, want at most 4 KB", name, least)
		}
	}
}
