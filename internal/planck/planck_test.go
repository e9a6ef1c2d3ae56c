package planck

import (
	"errors"
	"slices"
	"strings"
	"testing"

	"mxq/internal/ralg"
	"mxq/internal/scj"
	"mxq/internal/xqt"
)

func intTable(cols map[string][]int64) *ralg.Table {
	names := make([]string, 0, len(cols))
	for n := range cols {
		names = append(names, n)
	}
	for i := 1; i < len(names); i++ {
		for j := i; j > 0 && names[j] < names[j-1]; j-- {
			names[j], names[j-1] = names[j-1], names[j]
		}
	}
	kinds := make([]ralg.ColKind, len(names))
	for i := range kinds {
		kinds[i] = ralg.KInt
	}
	t := ralg.NewTable(names, kinds)
	for n, vs := range cols {
		t.Col(n).Int = vs
		t.N = len(vs)
	}
	return t
}

// itemLit builds a lit with iter:int and item:item columns.
func itemLit(n int) *ralg.Lit {
	t := ralg.NewTable([]string{"iter", "item"}, []ralg.ColKind{ralg.KInt, ralg.KItem})
	t.N = n
	iters := make([]int64, n)
	for i := range iters {
		iters[i] = int64(i) + 1
		t.Col("item").Item.Append(xqt.Int(int64(i)))
	}
	t.Col("iter").Int = iters
	return &ralg.Lit{Tab: t}
}

// wantViolation asserts that Verify rejects the plan with a
// *PlanInvariantError naming op and mentioning msgPart.
func wantViolation(t *testing.T, root ralg.Plan, cfg Config, op, msgPart string) {
	t.Helper()
	err := Verify(root, cfg)
	if err == nil {
		t.Fatalf("invalid plan accepted (want violation at %s)", op)
	}
	var pie *PlanInvariantError
	if !errors.As(err, &pie) {
		t.Fatalf("error is %T, want *PlanInvariantError", err)
	}
	if pie.Op != op {
		t.Errorf("violation at %q, want %q (msg: %s)", pie.Op, op, pie.Msg)
	}
	if !strings.Contains(pie.Msg, msgPart) {
		t.Errorf("violation message %q does not mention %q", pie.Msg, msgPart)
	}
}

func TestValidPlanVerifies(t *testing.T) {
	lit := itemLit(3)
	sorted := ralg.NewSort(lit, "item", "iter")
	step := &ralg.Step{Test: scj.Test{Kind: scj.TestNode}, IterCol: "iter", ItemCol: "item"}
	step.SetInput(0, sorted)
	if err := Verify(step, Config{}); err != nil {
		t.Fatalf("valid plan rejected: %v", err)
	}
}

func TestSelectNeedsBoolColumn(t *testing.T) {
	// corrupt: Select over a column that is an int, not a bool
	sel := &ralg.Select{Cond: "iter"}
	sel.SetInput(0, itemLit(2))
	wantViolation(t, sel, Config{}, sel.Name(), "kind int, want bool")

	// corrupt: Select over a missing column
	sel2 := &ralg.Select{Cond: "nope"}
	sel2.SetInput(0, itemLit(2))
	wantViolation(t, sel2, Config{}, sel2.Name(), `"nope" not in input schema`)
}

func TestStepNeedsSortedNodeInput(t *testing.T) {
	// corrupt: the compiler's mandatory sort(item,iter) is missing
	step := &ralg.Step{IterCol: "iter", ItemCol: "item"}
	step.SetInput(0, itemLit(3))
	wantViolation(t, step, Config{}, step.Name(), "not provably sorted")

	// corrupt: iter column points at the item column
	step2 := &ralg.Step{IterCol: "item", ItemCol: "item"}
	step2.SetInput(0, ralg.NewSort(itemLit(3), "item", "iter"))
	wantViolation(t, step2, Config{}, step2.Name(), "want int")
}

func TestHashJoinKeyMustExist(t *testing.T) {
	l := &ralg.Lit{Tab: intTable(map[string][]int64{"a": {1, 2}})}
	r := &ralg.Lit{Tab: intTable(map[string][]int64{"b": {1, 2}})}
	j := ralg.NewHashJoin(l, r, "missing", "b", ralg.Refs("a"), ralg.Refs("b"))
	wantViolation(t, j, Config{}, j.Name(), `"missing" not in input schema`)

	// corrupt: output columns collide across the two sides
	j2 := ralg.NewHashJoin(l, r, "a", "b", ralg.Refs("a->x"), ralg.Refs("b->x"))
	wantViolation(t, j2, Config{}, j2.Name(), `duplicate output column "x"`)
}

func TestAggrColumns(t *testing.T) {
	// corrupt: grouping column missing
	a := &ralg.Aggr{Part: "nope", Op: ralg.AggCount, Out: "item"}
	a.SetInput(0, itemLit(2))
	wantViolation(t, a, Config{}, a.Name(), `"nope" not in input schema`)

	// corrupt: sum over an int column (aggregates take item columns)
	a2 := &ralg.Aggr{Part: "iter", Op: ralg.AggSum, Arg: "iter", Out: "s"}
	a2.SetInput(0, itemLit(2))
	wantViolation(t, a2, Config{}, a2.Name(), "want item")
}

func TestParamTableMustBeDeclared(t *testing.T) {
	p := &ralg.ParamTable{Var: "x"}
	wantViolation(t, p, Config{Params: map[string]bool{"y": true}}, p.Name(), "undeclared variable $x")

	if err := Verify(p, Config{Params: map[string]bool{"x": true}}); err != nil {
		t.Fatalf("declared param rejected: %v", err)
	}
	// nil Params disables the check (caller has no declarations)
	if err := Verify(p, Config{}); err != nil {
		t.Fatalf("param with nil declarations rejected: %v", err)
	}
}

func TestProjectMissingSource(t *testing.T) {
	pr := ralg.NewProject(itemLit(2), "iter", "pos", "item")
	wantViolation(t, pr, Config{}, pr.Name(), `"pos" not in input schema`)
}

func TestFunArgumentKinds(t *testing.T) {
	// corrupt: and() over item columns (executor reads the bool vectors)
	f := ralg.NewFun(itemLit(2), ralg.FunAnd, "out", "item", "item")
	wantViolation(t, f, Config{}, f.Name(), "want bool")

	// corrupt: arithmetic over the raw int iter column (the
	// non-comparison fallback materializes only item columns)
	f2 := ralg.NewFun(itemLit(2), ralg.FunAdd, "out", "iter", "iter")
	wantViolation(t, f2, Config{}, f2.Name(), "want item")

	// comparisons accept mixed kinds: pos = item-valued literal
	f3 := ralg.NewFun(itemLit(2), ralg.FunEq, "keep", "iter", "item")
	if err := Verify(f3, Config{}); err != nil {
		t.Fatalf("mixed-kind comparison rejected: %v", err)
	}
}

func TestDuplicateOutputColumn(t *testing.T) {
	f := ralg.NewFun(itemLit(2), ralg.FunEq, "item", "iter", "iter")
	wantViolation(t, f, Config{}, f.Name(), `already exists`)
}

func TestSortDescFlagArity(t *testing.T) {
	s := ralg.NewSort(itemLit(2), "iter", "item")
	s.Desc = []bool{true} // 1 flag for 2 columns
	wantViolation(t, s, Config{}, s.Name(), "descending flags")
}

func TestRowNumModeAnnotationChecked(t *testing.T) {
	// corrupt: RankSeq claimed over an input that is not provably
	// sorted on the rank's order-by columns
	tab := intTable(map[string][]int64{"a": {3, 1, 2}})
	rn := ralg.NewRowNum(&ralg.Lit{Tab: tab}, "r", []string{"a"}, "")
	rn.Mode = ralg.RankSeq
	wantViolation(t, rn, Config{}, rn.Name(), "sequential rank mode")
}

func TestDistinctMergeAnnotationChecked(t *testing.T) {
	tab := intTable(map[string][]int64{"a": {3, 1, 2}})
	d := &ralg.Distinct{By: []string{"a"}, Merge: true}
	d.SetInput(0, &ralg.Lit{Tab: tab})
	wantViolation(t, d, Config{}, d.Name(), "merge mode")
}

func TestPositionalJoinAnnotationChecked(t *testing.T) {
	nonDense := &ralg.Lit{Tab: intTable(map[string][]int64{"b": {2, 5}})}
	l := &ralg.Lit{Tab: intTable(map[string][]int64{"a": {1, 2}})}
	j := ralg.NewHashJoin(l, nonDense, "a", "b", ralg.Refs("a"), ralg.Refs("b"))
	j.Pos = true
	wantViolation(t, j, Config{}, j.Name(), "positional mode requires a dense right key")
}

func TestUnionSchemaMismatch(t *testing.T) {
	a := &ralg.Lit{Tab: intTable(map[string][]int64{"x": {1}})}
	b := &ralg.Lit{Tab: intTable(map[string][]int64{"y": {1}})}
	u := &ralg.Union{Ins: []ralg.Plan{a, b}}
	wantViolation(t, u, Config{}, u.Name(), `lacks column "x"`)
}

func TestRequireItemAtRoot(t *testing.T) {
	tab := intTable(map[string][]int64{"iter": {1}})
	root := &ralg.Lit{Tab: tab}
	err := Verify(root, Config{RequireItem: true})
	var pie *PlanInvariantError
	if !errors.As(err, &pie) || !strings.Contains(pie.Msg, `"item"`) {
		t.Fatalf("item-less root accepted: %v", err)
	}
	if err := Verify(itemLit(1), Config{RequireItem: true}); err != nil {
		t.Fatalf("valid root rejected: %v", err)
	}
}

// A plan downstream of a Fail leaf has an unknown schema; checks are
// suspended rather than reporting false violations (the executor
// raises the dynamic error before the operator ever runs).
func TestFailPropagatesAnySchema(t *testing.T) {
	f := &ralg.Fail{Code: "FORG0001", Msg: "boom"}
	sel := &ralg.Select{Cond: "whatever"}
	sel.SetInput(0, f)
	if err := Verify(sel, Config{}); err != nil {
		t.Fatalf("plan under Fail rejected: %v", err)
	}
}

func TestExplainRendersTreeWithAnnotations(t *testing.T) {
	lit := itemLit(3)
	sorted := ralg.NewSort(lit, "item", "iter")
	s, err := Explain(sorted, Config{})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"sort(item,iter)", "lit(3 rows)", "iter:int", "item:"} {
		if !strings.Contains(s, want) {
			t.Errorf("explain output missing %q:\n%s", want, s)
		}
	}
}

func TestExplainSharedSubplanPrintedOnce(t *testing.T) {
	lit := itemLit(2)
	u := &ralg.Union{Ins: []ralg.Plan{lit, lit}}
	s, err := Explain(u, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Count(s, "lit(2 rows)") != 2 || !strings.Contains(s, "(shared)") {
		t.Errorf("shared subplan not referenced:\n%s", s)
	}
}

// planck derives const(iter) for a step result on its own — the step
// emits a subset of its input's iterations — so the cross-check accepts
// the optimizer's claim over one iteration, and neither side credits a
// step whose input has two iterations with it.
func TestStepConstIterNeedsConstInput(t *testing.T) {
	for n, want := range map[int]bool{1: true, 2: false} {
		step := &ralg.Step{Test: scj.Test{Kind: scj.TestNode}, IterCol: "iter", ItemCol: "item"}
		step.SetInput(0, ralg.NewSort(itemLit(n), "item", "iter"))
		infos, err := Analyze(step, Config{})
		if err != nil {
			t.Fatalf("%d iterations: %v", n, err)
		}
		info := infos[step]
		if got := slices.Contains(info.Const, "iter"); got != want {
			t.Errorf("%d iterations: planck const(iter) %v, want %v", n, got, want)
		}
		if got := info.Props.Const("iter"); got != want {
			t.Errorf("%d iterations: optimizer const(iter) %v, want %v", n, got, want)
		}
	}
}
