package opt

import (
	"testing"

	"mxq/internal/ralg"
	"mxq/internal/scj"
	"mxq/internal/xqt"
)

// litTable2 builds a one-int-column table under an arbitrary name.
func litTable2(name string, vals ...int64) *ralg.Table {
	t := ralg.NewTable([]string{name}, []ralg.ColKind{ralg.KInt})
	t.N = len(vals)
	t.Col(name).Int = vals
	return t
}

// A descending sort must not be elided (or refined away) just because
// an ascending cover of the same columns holds: ord(iter) proves the
// ascending order, the opposite of what the sort requests.
func TestDescendingSortNotElided(t *testing.T) {
	in := &ralg.Lit{Tab: litTable(1, 2, 3)}
	s := ralg.NewSort(in, "iter")
	s.Desc = []bool{true}
	out := Optimize(s)
	srt, ok := out.(*ralg.Sort)
	if !ok {
		t.Fatalf("descending sort dropped: %T", out)
	}
	if srt.RefinePrefix != 0 {
		t.Fatalf("descending sort refined: prefix %d", srt.RefinePrefix)
	}
	got, err := ralg.NewExec(nil, nil).Run(srt)
	if err != nil {
		t.Fatal(err)
	}
	want := []int64{3, 2, 1}
	for i, v := range got.Col("iter").Int {
		if v != want[i] {
			t.Fatalf("descending sort output %v, want %v", got.Col("iter").Int, want)
		}
	}
}

// A sort reorders rows, so density (values == row index + 1) of an
// unrelated column must not survive it.
func TestSortDropsDensity(t *testing.T) {
	tab := ralg.NewTable([]string{"a", "b"}, []ralg.ColKind{ralg.KInt, ralg.KInt})
	tab.N = 3
	tab.Col("a").Int = []int64{1, 2, 3}    // dense
	tab.Col("b").Int = []int64{30, 20, 10} // sort key reverses the rows
	s := ralg.NewSort(&ralg.Lit{Tab: tab}, "b")
	props := InferProps(s)
	if props[s].Dense("a") {
		t.Error("density of column a claimed across a sort by b")
	}
	// the identity case: a stable sort keyed by the dense column itself
	// cannot reorder anything
	s2 := ralg.NewSort(&ralg.Lit{Tab: tab}, "a")
	props = InferProps(s2)
	if !props[s2].Dense("a") {
		t.Error("sort by the dense column itself must keep density")
	}
}

// Distinct drops duplicate rows, leaving gaps in a dense column.
func TestDistinctDropsDensity(t *testing.T) {
	tab := ralg.NewTable([]string{"a", "b"}, []ralg.ColKind{ralg.KInt, ralg.KInt})
	tab.N = 3
	tab.Col("a").Int = []int64{1, 2, 3}
	tab.Col("b").Int = []int64{7, 7, 8}
	d := &ralg.Distinct{By: []string{"b"}}
	d.SetInput(0, &ralg.Lit{Tab: tab})
	props := InferProps(d)
	if props[d].Dense("a") {
		t.Error("density claimed across duplicate elimination")
	}
}

// Element construction emits one row per loop row, so its iter column
// is a key only when the loop's iter column is one.
func TestElemConstructKeyRequiresLoopKey(t *testing.T) {
	uniqLoop := &ralg.Lit{Tab: litTable2("iter", 1, 2, 3)}
	dupLoop := &ralg.Lit{Tab: litTable2("iter", 1, 1, 2)}
	mkElem := func(loop ralg.Plan) *ralg.ElemConstruct {
		tab := ralg.NewTable([]string{"iter", "item"}, []ralg.ColKind{ralg.KInt, ralg.KItem})
		e := &ralg.ElemConstruct{Loop: loop, Content: &ralg.Lit{Tab: tab}, Tag: "e"}
		return e
	}
	e1 := mkElem(uniqLoop)
	if !InferProps(e1)[e1].Key("iter") {
		t.Error("elem over a key loop must keep key(iter)")
	}
	e2 := mkElem(dupLoop)
	if InferProps(e2)[e2].Key("iter") {
		t.Error("elem over a loop with duplicate iterations must not claim key(iter)")
	}
}

// A stable one-column sort turns a global input ordering into a group
// ordering keyed by the sort column: rows with an equal sort key keep
// their (sorted) relative order. The sort-shortening rewrite relies on
// this — sort(item,iter) over an iter-ordered input becomes
// sort(item), and downstream consumers must still be able to prove
// ord(item,iter).
func TestStableSortKeepsGlobalOrderAsGrpord(t *testing.T) {
	tab := ralg.NewTable([]string{"iter", "item"}, []ralg.ColKind{ralg.KInt, ralg.KInt})
	tab.N = 4
	tab.Col("iter").Int = []int64{1, 2, 3, 4}
	tab.Col("item").Int = []int64{9, 7, 9, 7}
	s := ralg.NewSort(&ralg.Lit{Tab: tab}, "item", "iter")
	out := Optimize(s)
	srt, ok := out.(*ralg.Sort)
	if !ok || len(srt.By) != 1 || srt.By[0] != "item" {
		t.Fatalf("sort-shortening rewrite did not fire: %T %v", out, out)
	}
	if !InferProps(srt)[srt].Covers([]string{"item", "iter"}) {
		t.Error("shortened stable sort must still prove ord(item,iter)")
	}
}

// A staircase join emits a subset of its input's iterations: over a
// const(iter) input its output keeps const(iter) — the fact that lets a
// one-iteration path drop its sorts — and over two iterations it claims
// nothing of the kind.
func TestStepKeepsConstIter(t *testing.T) {
	ctx := func(iters ...int64) ralg.Plan {
		tab := ralg.NewTable([]string{"iter", "item"}, []ralg.ColKind{ralg.KInt, ralg.KItem})
		tab.N = len(iters)
		tab.Col("iter").Int = iters
		for range iters {
			tab.Col("item").Item.Append(xqt.Int(1))
		}
		return ralg.NewSort(&ralg.Lit{Tab: tab}, "item", "iter")
	}
	for _, c := range []struct {
		iters []int64
		want  bool
	}{{[]int64{1}, true}, {[]int64{1, 2}, false}} {
		for _, mk := range []func(ralg.Plan) ralg.Plan{
			func(in ralg.Plan) ralg.Plan {
				s := &ralg.Step{Axis: scj.Child, Test: scj.Test{Kind: scj.TestNode}, IterCol: "iter", ItemCol: "item"}
				s.SetInput(0, in)
				return s
			},
			func(in ralg.Plan) ralg.Plan {
				s := &ralg.AttrStep{IterCol: "iter", ItemCol: "item"}
				s.SetInput(0, in)
				return s
			},
		} {
			step := mk(ctx(c.iters...))
			pr := InferProps(step)[step]
			if got := pr.Const("iter"); got != c.want {
				t.Errorf("%s over iterations %v: const(iter) %v, want %v", step.Name(), c.iters, got, c.want)
			}
			if !pr.Covers([]string{"item", "iter"}) {
				t.Errorf("%s over iterations %v: ord(item, iter) lost", step.Name(), c.iters)
			}
			if c.want && !pr.Covers([]string{"iter", "item"}) {
				t.Errorf("%s over one iteration: ord(iter, item) not proved", step.Name())
			}
		}
	}
}
