package optcheck

import (
	"errors"
	"fmt"
	"strings"

	"mxq/internal/opt"
	"mxq/internal/planck"
	"mxq/internal/ralg"
	"mxq/internal/xqerr"
)

// judge replays both sides of a substituted witness and reports
// whether they agree. Agreement means byte-identical result tables, or
// failing with the same XQuery error code — a rewrite may not turn a
// succeeding plan into a failing one, change which error is raised, or
// perturb a single result byte. A rewritten plan that planck rejects
// outright is unsound without needing execution: the rewrite produced
// a plan whose own preconditions do not hold.
func (d *domain) judge(before, after ralg.Schedule) (ok bool, msg string) {
	if _, err := planck.Analyze(after, planck.Config{}); err != nil {
		return false, "rewritten plan fails static verification: " + err.Error()
	}
	tb, eb := d.run(before)
	ta, ea := d.run(after)
	switch {
	case eb != nil && ea != nil:
		if cb, ca := errCode(eb), errCode(ea); cb != ca {
			return false, fmt.Sprintf("error mismatch: before raises %s, after raises %s", cb, ca)
		}
		return true, ""
	case eb != nil:
		return false, fmt.Sprintf("before raises %s, after succeeds", errCode(eb))
	case ea != nil:
		return false, fmt.Sprintf("before succeeds, after raises %s", errCode(ea))
	case !ralg.TablesEqual(tb, ta):
		return false, "results differ"
	}
	return true, ""
}

// errCode extracts the stable identity of an execution error: the W3C
// code for typed XQuery errors, the message otherwise.
func errCode(err error) string {
	var xe *xqerr.Error
	if errors.As(err, &xe) {
		return xe.Code
	}
	return "!" + err.Error()
}

// repro renders the minimal reproducer: the rule, the synthesized
// inputs with their declared properties, both subplans via
// planck.Explain, and what each side produced.
func (d *domain) repro(step opt.RewriteStep, ins []ralg.Plan, lits []*ralg.LitDecl, before, after ralg.Schedule) string {
	var b strings.Builder
	fmt.Fprintf(&b, "rule: %s\n", step.Rule)
	for i, ld := range lits {
		fmt.Fprintf(&b, "input %d (%d rows)%s:\n%s", i, ld.Tab.N, declString(ld), ld.Tab.String())
	}
	b.WriteString("before:\n")
	b.WriteString(explainString(before))
	b.WriteString("after:\n")
	b.WriteString(explainString(after))
	b.WriteString("before yields: ")
	b.WriteString(resultString(d.run(before)))
	b.WriteString("after yields:  ")
	b.WriteString(resultString(d.run(after)))
	return b.String()
}

// declString renders the declared §4.1 properties of one literal.
func declString(ld *ralg.LitDecl) string {
	var parts []string
	if len(ld.Key) > 0 {
		parts = append(parts, "key{"+strings.Join(ld.Key, ",")+"}")
	}
	if len(ld.Const) > 0 {
		parts = append(parts, "const{"+strings.Join(ld.Const, ",")+"}")
	}
	for _, ord := range ld.Ords {
		parts = append(parts, "ord("+strings.Join(ord, ",")+")")
	}
	for _, g := range ld.Grps {
		parts = append(parts, "grpord("+strings.Join(g.Cols, ",")+"; "+g.Group+")")
	}
	if len(parts) == 0 {
		return ""
	}
	return " " + strings.Join(parts, " ")
}

func explainString(s ralg.Schedule) string {
	tree, _ := planck.Explain(s, planck.Config{})
	return tree
}

func resultString(t *ralg.Table, err error) string {
	if err != nil {
		return "error " + errCode(err) + "\n"
	}
	return "\n" + t.String()
}
