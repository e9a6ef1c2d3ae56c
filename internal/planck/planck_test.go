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
	kinds := make([]xqt.Kind, len(names))
	for i := range kinds {
		kinds[i] = xqt.KInt
	}
	t := ralg.NewTable(names, kinds)
	for n, vs := range cols {
		*t.Col(n) = ralg.BindInts(vs...)
		t.N = len(vs)
	}
	return t
}

// itemLit builds a lit with an iter column and a descending xs:integer
// item column.
func itemLit(n int) *ralg.Lit {
	t := ralg.NewTable([]string{"iter", "item"}, []xqt.Kind{xqt.KInt, xqt.KUntyped})
	t.N = n
	iters := make([]int64, n)
	for i := range iters {
		iters[i] = int64(i) + 1
		t.Col("item").Append(xqt.Int(int64(n - i)))
	}
	*t.Col("iter") = ralg.BindInts(iters...)
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
	// corrupt: Select over a column that is xs:integer, not xs:boolean
	sel := &ralg.Select{Cond: "iter"}
	sel.SetInput(0, itemLit(2))
	wantViolation(t, sel, Config{}, sel.Name(), "type integer, want boolean")

	// corrupt: Select over a column of unknown type
	mixed := ralg.NewTable(nil, nil)
	mixed.AddCol("c", ralg.ItemsOf(xqt.Bool(true), xqt.Int(1)))
	sel3 := &ralg.Select{Cond: "c"}
	sel3.SetInput(0, &ralg.Lit{Tab: mixed})
	wantViolation(t, sel3, Config{}, sel3.Name(), "type item, want boolean")

	// a comparison's output is xs:boolean
	cmp := ralg.NewFun(itemLit(2), ralg.FunEq, "keep", "iter", "item")
	ok := &ralg.Select{Cond: "keep"}
	ok.SetInput(0, cmp)
	if err := Verify(ok, Config{}); err != nil {
		t.Fatalf("select over a comparison rejected: %v", err)
	}

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

	// corrupt: iter column points at a string column
	step2 := &ralg.Step{IterCol: "s", ItemCol: "item"}
	step2.SetInput(0, ralg.NewSort(ralg.AttachItem(itemLit(3), "s", xqt.Str("x")), "item", "s"))
	wantViolation(t, step2, Config{}, step2.Name(), "type string, want integer")
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

	// corrupt: grouping by a column of unknown type
	a2 := &ralg.Aggr{Part: "item", Op: ralg.AggSum, Arg: "iter", Out: "s"}
	a2.SetInput(0, ralg.NewProject(&ralg.Union{Ins: []ralg.Plan{itemLit(2), ralg.AttachItem(ralg.NewProject(itemLit(1), "iter"), "item", xqt.Str("x"))}}, "iter", "item"))
	wantViolation(t, a2, Config{}, a2.Name(), "type item, want integer")
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
	// corrupt: an argument the input does not have
	f1 := ralg.NewFun(itemLit(2), ralg.FunAdd, "out", "iter", "nope")
	wantViolation(t, f1, Config{}, f1.Name(), `"nope" not in input schema`)

	// every column is an item column: a function reads an iter column
	// like any other, and the output of a comparison
	f2 := ralg.NewFun(itemLit(2), ralg.FunAdd, "out", "iter", "iter")
	f3 := ralg.NewFun(ralg.NewFun(itemLit(2), ralg.FunEq, "b", "iter", "item"), ralg.FunEbvAtom, "out", "b")
	for _, f := range []*ralg.Fun{f2, f3} {
		if err := Verify(f, Config{}); err != nil {
			t.Fatalf("%s rejected: %v", f.Name(), err)
		}
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

// An operator never given its input has input number -1 in its
// schedule; the verifier rejects the plan at that operator, not at its
// consumer.
func TestNilInputIsMissing(t *testing.T) {
	srt := &ralg.Sort{By: []string{"iter"}}
	sel := &ralg.Select{Cond: "iter"}
	sel.SetInput(0, srt)
	wantViolation(t, sel, Config{}, srt.Name(), "missing input 0")
}

func TestExplainRendersTreeWithAnnotations(t *testing.T) {
	lit := itemLit(3)
	sorted := ralg.NewSort(lit, "item", "iter")
	s, err := Explain(ralg.NewSchedule(sorted), Config{})
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
	s, err := Explain(ralg.NewSchedule(u), Config{})
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
		infos, err := Analyze(ralg.NewSchedule(step), Config{})
		if err != nil {
			t.Fatalf("%d iterations: %v", n, err)
		}
		info := infos[len(infos)-1]
		if got := slices.Contains(info.Const, "iter"); got != want {
			t.Errorf("%d iterations: planck const(iter) %v, want %v", n, got, want)
		}
		if got := info.Props.Const("iter"); got != want {
			t.Errorf("%d iterations: optimizer const(iter) %v, want %v", n, got, want)
		}
	}
}

// A step claims node-tagged output only where no attribute can come
// out: self, ancestor-or-self and descendant-or-self under node() pass
// an attribute context's attributes through, so over one the tag is
// left unknown, while a node-tagged context, another axis or another
// node test keeps the claim. A count-mode step is (iter, xs:integer),
// one row per iteration.
func TestStepTagClaim(t *testing.T) {
	sorted := func(p ralg.Plan) ralg.Plan { return ralg.NewSort(p, "item", "iter") }
	nodes := &ralg.Step{Axis: scj.Child, Test: scj.Test{Kind: scj.TestNode}, IterCol: "iter", ItemCol: "item"}
	nodes.SetInput(0, sorted(itemLit(2)))
	attrs := &ralg.Step{Axis: scj.Attribute, Test: scj.Test{Kind: scj.TestNode}, IterCol: "iter", ItemCol: "item"}
	attrs.SetInput(0, sorted(nodes))
	for _, tc := range []struct {
		ctx   ralg.Plan
		axis  scj.Axis
		test  scj.TestKind
		count bool
		known bool
		tag   xqt.Kind
	}{
		{attrs, scj.Self, scj.TestNode, false, false, 0},
		{attrs, scj.AncestorOrSelf, scj.TestNode, false, false, 0},
		{attrs, scj.DescendantOrSelf, scj.TestNode, false, false, 0},
		{attrs, scj.Self, scj.TestElem, false, true, xqt.KNode},
		{attrs, scj.Parent, scj.TestNode, false, true, xqt.KNode},
		{attrs, scj.Attribute, scj.TestNode, false, true, xqt.KAttr},
		{nodes, scj.DescendantOrSelf, scj.TestNode, false, true, xqt.KNode},
		{attrs, scj.Self, scj.TestNode, true, true, xqt.KInt},
	} {
		step := &ralg.Step{Axis: tc.axis, Test: scj.Test{Kind: tc.test}, IterCol: "iter", ItemCol: "item", Count: tc.count}
		step.SetInput(0, sorted(tc.ctx))
		infos, err := Analyze(ralg.NewSchedule(step), Config{})
		if err != nil {
			t.Fatalf("%v::%v count=%v: %v", tc.axis, tc.test, tc.count, err)
		}
		info := infos[len(infos)-1]
		ci := info.Schema.Info("item")
		if ci.TagKnown != tc.known || tc.known && ci.Tag != tc.tag {
			t.Errorf("%v::%v over %s count=%v: tag %v known=%v, want %v known=%v", tc.axis, tc.test, tc.ctx.Name(), tc.count, ci.Tag, ci.TagKnown, tc.tag, tc.known)
		}
		if key := slices.Contains(info.Key, "iter"); key != tc.count {
			t.Errorf("%v count=%v: key(iter) %v", tc.axis, tc.count, key)
		}
	}
}

// An element constructor's template is one element in preorder: a root
// start first, balanced starts and ends, named elements and attributes,
// an iter/item schema on every part and one input per part.
func TestElemTemplateWellFormed(t *testing.T) {
	loop := ralg.NewProject(itemLit(2), "iter")
	elem := func(parts []ralg.Plan, tmpl ...ralg.CtorTok) *ralg.ElemConstruct {
		return &ralg.ElemConstruct{Ins: append([]ralg.Plan{loop}, parts...), Template: tmpl}
	}
	start := func(tag string) ralg.CtorTok { return ralg.CtorTok{Kind: ralg.TokStart, Tag: tag} }
	part, end := ralg.CtorTok{Kind: ralg.TokPart}, ralg.CtorTok{Kind: ralg.TokEnd}
	two := []ralg.Plan{itemLit(2), itemLit(1)}

	if err := Verify(elem(two, start("a"), part, start("b"), end, part, end), Config{}); err != nil {
		t.Fatalf("well-formed template rejected: %v", err)
	}
	wantViolation(t, elem(two[:1], start("a"), start("b"), part, end), Config{}, "elem", "unbalanced template: 1 of its elements open")
	wantViolation(t, elem(nil, start("a"), end, start("b"), end), Config{}, "elem", "token 2 is outside the root element")
	wantViolation(t, elem(two[:1], part), Config{}, "elem", "token 0 is outside the root element")
	wantViolation(t, elem(nil), Config{}, "elem", "unbalanced template")
	wantViolation(t, elem(nil, start("a"), start(""), end, end), Config{}, "elem", "empty element tag")
	attrOnEnd := ralg.CtorTok{Kind: ralg.TokEnd, Attrs: []ralg.AttrSpec{{Attr: "k", Parts: 1}}}
	wantViolation(t, elem(two[:1], start("a"), attrOnEnd), Config{}, "elem", "which is no element start")
	wantViolation(t, elem([]ralg.Plan{loop}, start("a"), part, end), Config{}, "elem", `content part item column "item" not in input schema`)
	wantViolation(t, elem(two, start("a"), part, end), Config{}, "elem", "template reads 2 inputs, the operator has 3")
	wantViolation(t, elem(two[:1], start("a"), part, part, end), Config{}, "elem", "missing input 2")
}

// A by-reference constructor's trees hold reference rows that only the
// serializer follows. planck accepts one whose output reaches the root of
// a serialized plan through operators that carry it, or the content of
// another by-reference constructor, and agrees with MarkByRef there; it
// rejects a hand-marked one whose output feeds a Step, a Fun, an Aggr
// other than fn:count, a copying
// constructor or a parameter initializer's root, and a mark on any other
// operator.
func TestByRefReachesOnlyTheSerializer(t *testing.T) {
	loop := ralg.NewProject(itemLit(2), "iter")
	ctor := func(part ralg.Plan) *ralg.ElemConstruct {
		return &ralg.ElemConstruct{Ins: []ralg.Plan{loop, part}, Template: []ralg.CtorTok{
			{Kind: ralg.TokStart, Tag: "a"}, {Kind: ralg.TokPart}, {Kind: ralg.TokEnd}}}
	}
	seq := func(p ralg.Plan) ralg.Plan {
		return ralg.NewProject(ralg.AttachInt(p, "pos", 1), "iter", "pos", "item")
	}
	inner := ctor(itemLit(2))
	outer := ctor(seq(inner))
	step := &ralg.Step{Test: scj.Test{Kind: scj.TestNode}, IterCol: "iter", ItemCol: "item"}
	step.SetInput(0, ralg.NewSort(inner, "item", "iter"))
	fun := ralg.NewFun(inner, ralg.FunStringOf, "s", "item")
	sorted := ralg.NewSort(outer, "iter")
	aggr := func(op ralg.AggOp) *ralg.Aggr {
		a := &ralg.Aggr{Part: "iter", Op: op, Arg: "item", Out: "n"}
		a.SetInput(0, inner)
		return a
	}
	count, sum := aggr(ralg.AggCount), aggr(ralg.AggSum)
	// analyze numbers root, marks the listed operators by-reference and
	// checks the schedule
	analyze := func(root ralg.Plan, cfg Config, byRef ...ralg.Plan) error {
		s := ralg.NewSchedule(root)
		for i := range s {
			s[i].Ref = slices.Contains(byRef, s[i].Plan)
		}
		_, err := Analyze(s, cfg)
		return err
	}
	main := Config{Serialized: true}
	for _, root := range []ralg.Plan{sorted, step, fun, outer} {
		if err := analyze(root, Config{}); err != nil {
			t.Fatalf("unmarked %s rejected: %v", root.Name(), err)
		}
	}
	if err := analyze(sorted, main, inner, outer); err != nil {
		t.Fatalf("by-reference constructors that reach a serialized root rejected: %v", err)
	}
	s := ralg.NewSchedule(sorted)
	s.MarkByRef()
	marked := 0
	for _, op := range s {
		if op.Ref {
			marked++
		}
	}
	if _, err := Analyze(s, main); err != nil || marked != 2 {
		t.Fatalf("MarkByRef marked %d of the two constructors; planck: %v", marked, err)
	}
	// fn:count reads no item: a counted constructor builds by reference
	s = ralg.NewSchedule(count)
	if s.MarkByRef(); !s[len(s)-2].Ref {
		t.Fatalf("MarkByRef copies a constructor fn:count only counts")
	}
	if _, err := Analyze(s, main); err != nil {
		t.Fatalf("a counted by-reference constructor rejected: %v", err)
	}
	for _, tc := range []struct {
		name  string
		root  ralg.Plan
		cfg   Config
		byRef []ralg.Plan
		op    string
		msg   string
	}{
		{"step context", step, main, []ralg.Plan{inner}, "step(child)", `column "item" may hold trees a by-reference constructor built`},
		{"fun argument", fun, main, []ralg.Plan{inner}, fun.Name(), `column "item" may hold trees`},
		{"summed argument", sum, main, []ralg.Plan{inner}, sum.Name(), `column "item" may hold trees`},
		{"copying constructor's content", outer, main, []ralg.Plan{inner}, "elem", `column "item" may hold trees`},
		{"parameter root", sorted, Config{}, []ralg.Plan{inner, outer}, "sort", "the root is not only serialized"},
		{"mark on a sort", sorted, main, []ralg.Plan{sorted}, "sort", "only an element constructor builds by reference"},
	} {
		err := analyze(tc.root, tc.cfg, tc.byRef...)
		var pie *PlanInvariantError
		if !errors.As(err, &pie) || pie.Op != tc.op || !strings.Contains(pie.Msg, tc.msg) {
			t.Errorf("%s: err = %v, want a violation at %s mentioning %q", tc.name, err, tc.op, tc.msg)
		}
	}
}
