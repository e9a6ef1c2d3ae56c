package ralg

import (
	"sync"
	"testing"

	"mxq/internal/scj"
	"mxq/internal/store"
	"mxq/internal/xmark"
	"mxq/internal/xqt"
)

var (
	stepBenchOnce sync.Once
	stepBenchPool *store.Pool
	stepBenchTab  *Table
)

// stepBenchSetup builds an XMark document and a single-context descendant
// step input (the //item workhorse shape: one context node, huge region).
func stepBenchSetup() {
	stepBenchOnce.Do(func() {
		cont := xmark.NewStoreContainer("auction.xml", 0.02, 42)
		cont.BuildIndexes()
		stepBenchPool = store.NewPool()
		stepBenchPool.Register(cont)
		tab := NewTable([]string{"iter", "item"}, []xqt.Kind{xqt.KInt, xqt.KUntyped})
		tab.N = 1
		*tab.Col("iter") = BindInts(1)
		*tab.Col("item") = ItemsOf(xqt.Node(cont.ID, 0))
		stepBenchTab = tab
	})
}

func BenchmarkStep(b *testing.B) {
	stepBenchSetup()
	n := &Step{
		unary:   unary{In: &Lit{Tab: stepBenchTab}},
		Axis:    scj.Descendant,
		Test:    scj.Test{Kind: scj.TestElem, Name: "item"},
		Variant: scj.LoopLifted,
		IterCol: "iter",
		ItemCol: "item",
	}
	ex := NewExec(stepBenchPool, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ex.execStep(n, stepBenchTab); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHashJoin(b *testing.B) {
	const nl, nr = 200000, 50000
	l := NewTable([]string{"k"}, []xqt.Kind{xqt.KInt})
	l.N = nl
	for i := 0; i < nl; i++ {
		*l.Col("k") = BindInts(append(l.Ints("k"), int64(i%nr))...)
	}
	r := NewTable([]string{"k", "v"}, []xqt.Kind{xqt.KInt, xqt.KInt})
	r.N = nr
	for j := 0; j < nr; j++ {
		*r.Col("k") = BindInts(append(r.Ints("k"), int64(j))...)
		*r.Col("v") = BindInts(append(r.Ints("v"), int64(j)*3)...)
	}
	n := NewHashJoin(&Lit{Tab: l}, &Lit{Tab: r}, "k", "k", Refs("k"), Refs("v"))
	ex := NewExec(store.NewPool(), nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ex.execHashJoin(n, l, r); err != nil {
			b.Fatal(err)
		}
	}
}

// --- uniform vs tag-vector column pairs --------------------------------
//
// The *Typed benchmarks run the kernels over uniform columns (one kind
// dispatch per column, monomorphic loops over raw payload vectors); the
// *MixedTag pairs run the identical values through a demoted column
// whose materialized tag vector sends Fun through the split-by-tag step
// (one signature pass, then the same kernel) and Aggr through its
// per-row item path — the cost of carrying a tag vector.

const funBenchRows = 1 << 18

func funBenchTable(demoted bool) *Table {
	a := make([]xqt.Item, funBenchRows)
	c := make([]xqt.Item, funBenchRows)
	for i := range a {
		a[i] = xqt.Int(int64(i % 1000))
		c[i] = xqt.Double(float64(i%997) / 4)
	}
	av, cv := NewItemVec(a), NewItemVec(c)
	if demoted {
		av, cv = demote(av), demote(cv)
	}
	tab := &Table{N: funBenchRows}
	tab.AddCol("a", av)
	tab.AddCol("b", cv)
	return tab
}

func benchmarkFun(b *testing.B, op FunOp, demoted bool) {
	tab := funBenchTable(demoted)
	n := &Fun{Op: op, Args: []string{"a", "b"}, Out: "o"}
	ex := NewExec(store.NewPool(), nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ex.execFun(n, tab); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFunAddTyped(b *testing.B)    { benchmarkFun(b, FunAdd, false) }
func BenchmarkFunAddMixedTag(b *testing.B) { benchmarkFun(b, FunAdd, true) }
func BenchmarkFunCmpTyped(b *testing.B)    { benchmarkFun(b, FunLt, false) }
func BenchmarkFunCmpMixedTag(b *testing.B) { benchmarkFun(b, FunLt, true) }

func aggrBenchTable(demoted bool) *Table {
	vals := make([]xqt.Item, funBenchRows)
	parts := make([]int64, funBenchRows)
	for i := range vals {
		vals[i] = xqt.Double(float64(i%911) / 8)
		parts[i] = int64(i / 64) // 64-row groups, clustered
	}
	v := NewItemVec(vals)
	if demoted {
		v = demote(v)
	}
	tab := &Table{N: funBenchRows}
	tab.AddCol("part", uniformIntCol(parts))
	tab.AddCol("item", v)
	return tab
}

func benchmarkAggr(b *testing.B, op AggOp, demoted bool) {
	tab := aggrBenchTable(demoted)
	n := &Aggr{Part: "part", Op: op, Arg: "item", Out: "o"}
	ex := NewExec(store.NewPool(), nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ex.execAggr(n, tab); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAggrSumTyped(b *testing.B)    { benchmarkAggr(b, AggSum, false) }
func BenchmarkAggrSumMixedTag(b *testing.B) { benchmarkAggr(b, AggSum, true) }
func BenchmarkAggrMaxTyped(b *testing.B)    { benchmarkAggr(b, AggMax, false) }
func BenchmarkAggrMaxMixedTag(b *testing.B) { benchmarkAggr(b, AggMax, true) }
