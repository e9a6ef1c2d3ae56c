package xqc

import (
	"fmt"
	"testing"

	"mxq/internal/ralg"
	"mxq/internal/xmark"
)

// TestStepRunsAreChained: within a run of predicate-free steps each
// staircase join consumes its predecessor's (item, iter)-ordered output
// directly, so in none of the twenty XMark plans does a Sort or RowNum
// sit between two steps with only Sort, RowNum and Project operators
// around it. A predicated step starts over from its context's
// per-node iterations (an Attach of pos 1), which ends the walk.
func TestStepRunsAreChained(t *testing.T) {
	for q := 1; q <= 20; q++ {
		p := compilePlan(t, xmark.Query(q), DefaultOptions())
		ralg.Walk(p, func(n ralg.Plan) {
			switch n.(type) {
			case *ralg.Step, *ralg.AttrStep:
			default:
				return
			}
			if between := renumberedStep(n.Inputs()[0]); between != "" {
				t.Errorf("Q%d: %s between %s and the step before it", q, between, n.Name())
			}
		})
	}
}

// renumberedStep follows p down through Sort, RowNum and Project and
// names the Sort or RowNum operators it passed when it ends at a step.
func renumberedStep(p ralg.Plan) string {
	passed := ""
	for {
		switch x := p.(type) {
		case *ralg.Step, *ralg.AttrStep:
			return passed
		case *ralg.Sort:
			passed += fmt.Sprintf(" sort%v", x.By)
		case *ralg.RowNum:
			passed += fmt.Sprintf(" rownum(%s)", x.Out)
		case *ralg.Project:
		default:
			return ""
		}
		p = p.Inputs()[0]
	}
}
