package opt_test

import (
	"math"
	"strings"
	"testing"

	"mxq/internal/opt"
	"mxq/internal/planck"
	"mxq/internal/ralg"
	"mxq/internal/xmark"
	"mxq/internal/xqt"
)

// intTable is a table of integer columns, one per name, rows given
// column by column.
func intTable(names []string, cols ...[]int64) *ralg.Table {
	t := ralg.NewTable(nil, nil)
	for i, name := range names {
		t.AddCol(name, ralg.BindInts(cols[i]...))
	}
	return t
}

// optimizeUnion optimizes the union of ps and returns its inputs after
// the rewrite.
func optimizeUnion(ps ...ralg.Plan) []ralg.Plan {
	return opt.Optimize(&ralg.Union{Ins: ps}).Inputs()
}

func TestInternEqualSorts(t *testing.T) {
	in := &ralg.Lit{Tab: intTable([]string{"iter"}, []int64{3, 1, 2})}
	ins := optimizeUnion(ralg.NewSort(in, "iter"), ralg.NewSort(in, "iter"))
	if _, ok := ins[0].(*ralg.Sort); !ok || ins[0] != ins[1] {
		t.Errorf("two sorts of one input: %T %p and %T %p, want one sort", ins[0], ins[0], ins[1], ins[1])
	}
	desc := ralg.NewSort(in, "iter")
	desc.Desc = []bool{true}
	if ins := optimizeUnion(ralg.NewSort(in, "iter"), desc); ins[0] == ins[1] {
		t.Error("an ascending and a descending sort merged")
	}
}

// Each evaluation of a constructor creates new nodes, so two equal ones
// over inputs that merge stay two, and so does everything that reads
// them.
func TestInternKeepsConstructorsApart(t *testing.T) {
	elem := func() ralg.Plan {
		loop := &ralg.Lit{Tab: intTable([]string{"iter"}, []int64{1})}
		content := &ralg.Lit{Tab: ralg.NewTable([]string{"iter", "pos", "item"}, []xqt.Kind{xqt.KInt, xqt.KInt, xqt.KUntyped})}
		tmpl := []ralg.CtorTok{{Kind: ralg.TokStart, Tag: "a"}, {Kind: ralg.TokPart}, {Kind: ralg.TokEnd}}
		return ralg.NewProject(&ralg.ElemConstruct{Ins: []ralg.Plan{loop, content}, Template: tmpl}, "iter", "item")
	}
	ins := optimizeUnion(elem(), elem())
	if ins[0] == ins[1] || ins[0].Inputs()[0] == ins[1].Inputs()[0] {
		t.Error("two constructors, or the projections above them, merged")
	}
	if ins[0].Inputs()[0].Inputs()[0] != ins[1].Inputs()[0].Inputs()[0] {
		t.Error("the constructors' equal loop literals did not merge")
	}
}

func TestInternLiterals(t *testing.T) {
	lit := func(vals ...int64) *ralg.Lit { return &ralg.Lit{Tab: intTable([]string{"iter"}, vals)} }
	if ins := optimizeUnion(lit(1), lit(1)); ins[0] != ins[1] {
		t.Error("two equal small literals did not merge")
	}
	if ins := optimizeUnion(lit(1), lit(2)); ins[0] == ins[1] {
		t.Error("two different literals merged")
	}
	large := []int64{1, 2, 3, 4, 5, 6, 7, 8, 9}
	if ins := optimizeUnion(lit(large...), lit(large...)); ins[0] == ins[1] {
		t.Error("two large literals merged by content")
	}
	tab := intTable([]string{"iter"}, large)
	if ins := optimizeUnion(&ralg.Lit{Tab: tab}, &ralg.Lit{Tab: tab}); ins[0] != ins[1] {
		t.Error("two literals of one large table did not merge")
	}
	empty := func(k xqt.Kind) *ralg.Lit { return &ralg.Lit{Tab: ralg.NewTable([]string{"item"}, []xqt.Kind{k})} }
	if ins := optimizeUnion(empty(xqt.KInt), empty(xqt.KString)); ins[0] == ins[1] {
		t.Error("empty literals of two kinds merged")
	}
	double := func(f float64) *ralg.Lit {
		t := ralg.NewTable(nil, nil)
		t.AddCol("item", ralg.BindFloats(f))
		return &ralg.Lit{Tab: t}
	}
	if ins := optimizeUnion(double(0), double(math.Copysign(0, -1))); ins[0] == ins[1] {
		t.Error("literals 0 and -0 merged")
	}
	zero, negZero := xqt.Double(0), xqt.Double(math.Copysign(0, -1))
	loop := lit(1)
	if ins := optimizeUnion(ralg.AttachItem(loop, "item", zero), ralg.AttachItem(loop, "item", negZero)); ins[0] == ins[1] {
		t.Error("attached 0 and -0 merged")
	}
}

// A duplicate is compared after its own rewrite: the second of two sorts
// the inputs' order turns into refine sorts merges with the first, which
// was refined before it.
func TestInternRefinedTwins(t *testing.T) {
	in := &ralg.Lit{Tab: intTable([]string{"a", "b"}, []int64{1, 1, 2}, []int64{2, 1, 1})}
	ins := optimizeUnion(ralg.NewSort(in, "a", "b"), ralg.NewSort(in, "a", "b"))
	s, ok := ins[0].(*ralg.Sort)
	if !ok || s.RefinePrefix != 1 {
		t.Fatalf("sort on (a, b) over an a-sorted input: %T %+v, want a refine sort", ins[0], ins[0])
	}
	if ins[0] != ins[1] {
		t.Error("refined twins did not merge")
	}
}

// Q20 sorts each of its inputs once on each ordering: the schedule the
// optimizer emits numbers the shared plan with one entry per distinct
// node, exactly as ralg.NewSchedule numbers its root, the verifier
// accepts it, and the explain output prints a node read twice once, then
// "(shared)".
func TestInternedPlanVerifiedOnce(t *testing.T) {
	plans := compilePlans(xmark.Queries[19])
	s := opt.OptimizeSchedule(ralg.NewSchedule(plans[len(plans)-1]), nil)
	if err := scheduleDiff(s, ralg.NewSchedule(s[len(s)-1].Plan)); err != "" {
		t.Errorf("Q20's emitted schedule: %s", err)
	}
	type sortOf struct {
		in ralg.Plan
		by string
	}
	sorts := map[sortOf]bool{}
	for _, op := range s {
		if s, ok := op.Plan.(*ralg.Sort); ok {
			k := sortOf{s.In, strings.Join(s.By, ",")}
			if sorts[k] {
				t.Errorf("Q20 sorts one input on [%s] twice", k.by)
			}
			sorts[k] = true
		}
	}
	if _, err := planck.Analyze(s, planck.Config{}); err != nil {
		t.Fatal(err)
	}
	tree, err := planck.Explain(s, planck.Config{})
	if err != nil || !strings.Contains(tree, "(shared)") {
		t.Errorf("Q20's explain shows no shared node (%v):\n%s", err, tree)
	}
}
