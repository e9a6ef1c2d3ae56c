package opt

import (
	"testing"

	"mxq/internal/ralg"
)

func litTable(vals ...int64) *ralg.Table {
	t := ralg.NewTable([]string{"iter"}, []ralg.ColKind{ralg.KInt})
	t.N = len(vals)
	t.Col("iter").Int = vals
	return t
}

// declared returns the properties inferred for a column-less literal
// that declares them, so that a test states properties without
// depending on how they are stored.
func declared(d *ralg.LitDecl) Props {
	d.Tab = ralg.NewTable(nil, nil)
	return InferProps(d)[d]
}

func litPropsOf(tab *ralg.Table) Props {
	l := &ralg.Lit{Tab: tab}
	return InferProps(l)[l]
}

func TestLitProps(t *testing.T) {
	pr := litPropsOf(litTable(1, 2, 3))
	if !pr.Dense("iter") || !pr.Key("iter") || !pr.Covers([]string{"iter"}) {
		t.Errorf("dense lit: %v %v %v", pr.DenseCols(), pr.KeyCols(), pr.Ords())
	}
	pr = litPropsOf(litTable(1, 1, 3))
	if pr.Dense("iter") || pr.Key("iter") {
		t.Error("non-dense lit misclassified")
	}
	if !pr.Covers([]string{"iter"}) {
		t.Error("sorted lit not covered")
	}
	pr = litPropsOf(litTable(3, 1))
	if pr.Covers([]string{"iter"}) {
		t.Error("unsorted lit claimed sorted")
	}
}

func TestCoversKeyCut(t *testing.T) {
	pr := declared(&ralg.LitDecl{Ords: [][]string{{"a"}}, Key: []string{"a"}})
	if !pr.Covers([]string{"a", "b", "c"}) {
		t.Error("unique prefix must cover any suffix")
	}
	pr2 := declared(&ralg.LitDecl{Ords: [][]string{{"a"}}})
	if pr2.Covers([]string{"a", "b"}) {
		t.Error("non-unique prefix must not cover suffixes")
	}
}

func TestCoversSkipsConsts(t *testing.T) {
	pr := declared(&ralg.LitDecl{Ords: [][]string{{"a"}}, Const: []string{"c"}})
	if !pr.Covers([]string{"c", "a"}) || !pr.Covers([]string{"a", "c"}) {
		t.Error("constant columns must be transparent to orderings")
	}
}

func TestGrpCoveredByGlobalOrder(t *testing.T) {
	pr := declared(&ralg.LitDecl{Ords: [][]string{{"x"}}})
	if !pr.GrpCovered([]string{"x"}, "anygroup") {
		t.Error("global order implies every group order")
	}
}

func TestExpandOrds(t *testing.T) {
	pr := declared(&ralg.LitDecl{
		Ords: [][]string{{"iter"}},
		Grps: []ralg.GrpSpec{{Cols: []string{"pos"}, Group: "iter"}},
	})
	if !pr.Covers([]string{"iter", "pos"}) {
		t.Error("ord[iter] + grpord([pos],iter) must imply ord[iter,pos]")
	}
}

func TestSortElision(t *testing.T) {
	in := &ralg.Lit{Tab: litTable(1, 2, 3)}
	s := ralg.NewSort(in, "iter")
	out := Optimize(s)
	if out != in {
		t.Errorf("sort over sorted input not elided: %T", out)
	}
}

func TestRowNumModeSelection(t *testing.T) {
	in := &ralg.Lit{Tab: litTable(1, 2, 3)}
	rn := ralg.NewRowNum(in, "r", []string{"iter"}, "")
	Optimize(rn)
	if rn.Mode != ralg.RankSeq {
		t.Errorf("RowNum over sorted input: mode %d, want RankSeq", rn.Mode)
	}
	// descending keys force the sorting implementation
	rn2 := ralg.NewRowNum(&ralg.Lit{Tab: litTable(1, 2, 3)}, "r", []string{"iter"}, "")
	rn2.Desc = []bool{true}
	Optimize(rn2)
	if rn2.Mode != ralg.RankSort {
		t.Errorf("descending RowNum: mode %d, want RankSort", rn2.Mode)
	}
}

func TestPositionalJoinModes(t *testing.T) {
	dense := &ralg.Lit{Tab: litTable(1, 2, 3)}
	other := func() *ralg.Lit {
		tab := ralg.NewTable([]string{"k"}, []ralg.ColKind{ralg.KInt})
		tab.N = 3
		tab.Col("k").Int = []int64{2, 2, 3}
		return &ralg.Lit{Tab: tab}
	}
	j := ralg.NewHashJoin(other(), dense, "k", "iter", ralg.Refs("k"), ralg.Refs("iter"))
	Optimize(j)
	if !j.Pos {
		t.Error("dense right key must select the positional join")
	}
	j2 := ralg.NewHashJoin(dense, other(), "iter", "k", ralg.Refs("iter"), ralg.Refs("k"))
	Optimize(j2)
	if !j2.PosLeft {
		t.Error("dense unique left key with sorted right input must select PosLeft")
	}
}

func TestDistinctMergeMode(t *testing.T) {
	d := &ralg.Distinct{By: []string{"iter"}}
	d.SetInput(0, &ralg.Lit{Tab: litTable(1, 1, 2)})
	Optimize(d)
	if !d.Merge {
		t.Error("distinct over sorted input must use merge mode")
	}
}

func TestSortGrpordRewrite(t *testing.T) {
	// input sorted by item with grpord([iter? no: construct directly
	in := &ralg.Lit{Tab: litTable(1, 2, 3)}
	rn := ralg.NewRowNum(in, "pos", nil, "iter")
	rn.Mode = ralg.RankStream // emulate a stream-ranked input
	s := ralg.NewSort(rn, "iter", "pos")
	out := Optimize(s)
	srt, ok := out.(*ralg.Sort)
	if !ok {
		// dropped entirely is also fine if covered
		return
	}
	if len(srt.By) != 1 || srt.By[0] != "iter" {
		t.Errorf("grpord sort rewrite: By=%v, want [iter]", srt.By)
	}
}

func TestOptimizeIsIdempotentOnDAGs(t *testing.T) {
	// shared subplan: two sorts over the same input must rewrite once
	in := &ralg.Lit{Tab: litTable(1, 2, 3)}
	s1 := ralg.NewSort(in, "iter")
	s2 := ralg.NewSort(in, "iter")
	u := &ralg.Union{Ins: []ralg.Plan{s1, s2}}
	out := Optimize(u)
	uu := out.(*ralg.Union)
	if uu.Ins[0] != in || uu.Ins[1] != in {
		t.Error("shared sorted input not elided on both branches")
	}
}
