package xqc

import (
	"fmt"
	"slices"
	"testing"

	"mxq/internal/planck"
	"mxq/internal/ralg"
	"mxq/internal/xmark"
	"mxq/internal/xqt"
)

// TestStepRunsAreChained: within a run of steps whose predicates cannot
// see position each staircase join consumes its predecessor's (item,
// iter)-ordered output directly, so in none of the twenty XMark plans
// does a Sort or RowNum sit between two steps with only Sort, RowNum and
// Project operators around it. Such a predicate filters its step's
// output in that same order, and the walk continues across the filter.
// A step whose predicates can see position starts over from its
// context's numbered sequence, which ends the walk.
func TestStepRunsAreChained(t *testing.T) {
	for q := 1; q <= 20; q++ {
		p := compilePlan(t, xmark.Query(q), DefaultOptions())
		for _, op := range ralg.NewSchedule(p) {
			if _, ok := op.Plan.(*ralg.Step); !ok {
				continue
			}
			if between := renumberedStep(op.Plan.Inputs()[0]); between != "" {
				t.Errorf("Q%d: %s between %s and the step before it", q, between, op.Plan.Name())
			}
		}
	}
}

// renumberedStep follows p down through Sort, RowNum, Project and
// predicate filters and names the Sort or RowNum operators it passed
// when it ends at a step.
func renumberedStep(p ralg.Plan) string {
	passed := ""
	for {
		switch x := p.(type) {
		case *ralg.Step:
			return passed
		case *ralg.HashJoin:
			// a filter keeps the rows of its pid-numbered input
			rn, ok := x.Inputs()[0].(*ralg.RowNum)
			if !ok || rn.Out != "pid" || !slices.Equal(rn.OrderBy, []string{"item", "iter"}) {
				return ""
			}
			p = rn
		case *ralg.Sort:
			passed += fmt.Sprintf(" sort%v", x.By)
		case *ralg.RowNum:
			if x.Out != "pid" {
				passed += fmt.Sprintf(" rownum(%s)", x.Out)
			}
		case *ralg.Project:
		default:
			return ""
		}
		p = p.Inputs()[0]
	}
}

// TestReIterationOnlyWherePositionTellsNodesApart: a step is re-iterated
// per context node (a RowNum named cid) only where its predicates can
// see position and its context holds several nodes per iteration. None
// of the twenty XMark plans has one: their predicates select, or count
// positions over a for variable.
func TestReIterationOnlyWherePositionTellsNodesApart(t *testing.T) {
	reiterates := func(p ralg.Plan) bool {
		return countNodes(p, func(n ralg.Plan) bool {
			rn, ok := n.(*ralg.RowNum)
			return ok && rn.Out == "cid"
		}) > 0
	}
	for q := 1; q <= 20; q++ {
		if reiterates(compilePlan(t, xmark.Query(q), DefaultOptions())) {
			t.Errorf("Q%d re-iterates a step per context node", q)
		}
	}
	for q, want := range map[string]bool{
		`//a/b[1]`:                                    true,
		`let $n := 2 return //a/b[$n]`:                true,
		`//a/b[@id = "x"]/c[. = "y"]`:                 false,
		`for $a in //a return $a/b[1]`:                false,
		`for $a in //a return $a/ancestor::*[last()]`: false,
		`//a[b[1]]/c`:                                 false,
		`/b[2]`:                                       false,
	} {
		if got := reiterates(compilePlan(t, q, DefaultOptions())); got != want {
			t.Errorf("%s: re-iterates %v, want %v", q, got, want)
		}
	}
}

// TestConditionsCompileToIterationSets: a where clause, a boolean step
// predicate and an if condition compile to the set of iterations where
// they hold, so no operator of their plans materializes a dense boolean
// relation — no Attach of a boolean column, no Union carrying one, no
// Fun over one, no Select on val. A condition in value position is
// densified exactly once, at the top, whatever operators it combines.
func TestConditionsCompileToIterationSets(t *testing.T) {
	filters := []string{
		`for $i in (1, 2, 3) where $i = 1 or not(exists((2, 3)[. = $i])) return $i`,
		`for $i in (1, 2, 3) where $i > 1 and empty((4, 5)[. = $i]) and true() return $i`,
		`/site/people/person[@id = "person0" and not(empty(address)) or false()]/name`,
		`for $i in (1, 2) return if ($i = 1 or boolean(/site)) then 1 else 2`,
		`for $i in (1, 2) return if (some $j in (1, 3) satisfies $j = $i) then 1 else 2`,
	}
	for _, q := range filters {
		s, infos := analyze(t, q)
		for i := range s {
			if what := denseBoolean(s, i, infos); what != "" {
				t.Errorf("%s: %s", q, what)
			}
		}
	}
	values := []string{
		`for $i in (1, 2, 3) return ($i = 1 and exists((2, 3)[. = $i])) or not($i = 3)`,
		`for $i in (1, 2, 3) return not(empty((2, 3)[. = $i]) or $i > 2)`,
	}
	for _, q := range values {
		s, infos := analyze(t, q)
		unions := 0
		for i, op := range s {
			if _, ok := op.Plan.(*ralg.Union); ok && denseBoolean(s, i, infos) != "" {
				unions++
			}
		}
		if unions != 1 {
			t.Errorf("%s: densified %d times, want once", q, unions)
		}
	}
}

func analyze(t *testing.T, q string) (ralg.Schedule, []planck.Info) {
	t.Helper()
	s := ralg.NewSchedule(compilePlan(t, q, DefaultOptions()))
	infos, err := planck.Analyze(s, planck.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return s, infos
}

// denseBoolean names node i of s when it is one of the operators of a
// dense boolean relation: a boolean Attach, a Union carrying a boolean
// column, a Fun over a boolean column, or a Select on val. infos is by
// schedule number.
func denseBoolean(s ralg.Schedule, i int, infos []planck.Info) string {
	isBool := func(s *planck.Schema, c string) bool { return s.Info(c).Is(xqt.KBool) }
	switch x := s[i].Plan.(type) {
	case *ralg.Attach:
		if isBool(infos[i].Schema, x.Col) {
			return "attach of the boolean " + x.Col
		}
	case *ralg.Union:
		for _, c := range infos[i].Schema.Cols() {
			if isBool(infos[i].Schema, c) {
				return "union carrying the boolean " + c
			}
		}
	case *ralg.Fun:
		for _, a := range x.Args {
			if isBool(infos[s[i].In[0]].Schema, a) {
				return "fun over the boolean " + a
			}
		}
	case *ralg.Select:
		if x.Cond == "val" {
			return "select on val"
		}
	}
	return ""
}
