package xqc

import (
	"fmt"
	"slices"

	"mxq/internal/ralg"
	"mxq/internal/scj"
	"mxq/internal/xqerr"
	"mxq/internal/xqp"
	"mxq/internal/xqt"
)

// axisToSCJ maps a parsed axis to the staircase join's: both packages
// list the XPath axes in the same order (TestAxesAgree).
func axisToSCJ(a xqp.Axis) scj.Axis { return scj.Axis(a) }

func testToSCJ(t xqp.NodeTest) scj.Test {
	switch t.Kind {
	case xqp.TestName:
		return scj.Test{Kind: scj.TestElem, Name: t.Name}
	case xqp.TestAnyNode:
		return scj.Test{Kind: scj.TestNode}
	case xqp.TestText:
		return scj.Test{Kind: scj.TestText}
	case xqp.TestComment:
		return scj.Test{Kind: scj.TestComment}
	case xqp.TestPI:
		return scj.Test{Kind: scj.TestPI}
	case xqp.TestDocNode:
		return scj.Test{Kind: scj.TestDoc}
	}
	return scj.Test{Kind: scj.TestNode}
}

// stepVariant selects the staircase join strategy per the compiler
// options (Figure 12's configurations).
func (c *Compiler) stepVariant(axis scj.Axis, test scj.Test) scj.Variant {
	if c.opts.NametestPushdown && test.Kind == scj.TestElem && test.Name != "" {
		switch axis {
		case scj.Child, scj.Descendant, scj.DescendantOrSelf:
			return scj.CandidateList
		}
	}
	switch axis {
	case scj.Child:
		return c.opts.ChildVariant
	case scj.Descendant, scj.DescendantOrSelf:
		return c.opts.DescVariant
	}
	return scj.LoopLifted
}

// compilePath compiles a path to its sequence (iter|pos|item) or, with
// count, a counted path to its count plan: per iteration with a result
// node, an (iter, item) row holding their number, in iteration order.
func (c *Compiler) compilePath(p *xqp.Path, sc *scope, count bool) (ralg.Plan, error) {
	var ctx ralg.Plan
	steps := p.Steps
	// one marks a context of exactly one item per iteration: the
	// document root, a for variable or the context item
	one := true
	switch {
	case p.Absolute:
		// the context document is an execution-time plan input (resolved
		// from Exec.ContextDoc), not a compile-time constant: one cached
		// plan serves any context document
		cross := &ralg.Cross{LCols: ralg.Refs("iter"), RCols: ralg.Refs("pos", "item")}
		cross.SetInput(0, ralg.NewProject(sc.loop, "iter"))
		cross.SetInput(1, &ralg.ContextRoot{})
		ctx = cross
	case steps[0].Expr != nil:
		q, err := c.compile(steps[0].Expr, sc)
		if err != nil {
			return nil, err
		}
		q, err = c.compilePreds(q, steps[0].Preds, sc)
		if err != nil {
			return nil, err
		}
		v, isVar := steps[0].Expr.(*xqp.VarRef)
		one = isVar && sc.vars[v.Name] != nil && sc.vars[v.Name].loop
		ctx = q
		steps = steps[1:]
	default:
		// a bare axis step evaluates against the context item
		b, ok := sc.vars["."]
		if !ok {
			return nil, xqerr.Newf("XPDY0002", "relative path with no context item")
		}
		ctx = b.plan
	}
	steps = fuseDescendantSteps(steps)
	for len(steps) > 0 {
		if steps[0].Expr != nil {
			return nil, fmt.Errorf("xqc: primary expression in non-initial path step")
		}
		n := 1
		var err error
		if seesPosition(steps[0].Preds) {
			ctx, err = c.compileStep(ctx, steps[0], sc, one)
		} else {
			for n < len(steps) && steps[n].Expr == nil && !seesPosition(steps[n].Preds) {
				n++
			}
			ctx, err = c.compileChain(ctx, steps[:n], sc, false, count && n == len(steps))
		}
		if err != nil {
			return nil, err
		}
		steps, one = steps[n:], false
	}
	return ctx, nil
}

// counted reports whether e is a path whose last run is a chain (its
// last step cannot see position), which compilePath can count.
func counted(e xqp.Expr) bool {
	p, ok := e.(*xqp.Path)
	return ok && len(p.Steps) > 0 && p.Steps[len(p.Steps)-1].Expr == nil && !seesPosition(p.Steps[len(p.Steps)-1].Preds)
}

// compileChain applies a run of axis steps whose predicates cannot see
// position to the context sequence ctx (iter|pos|item) as one staircase
// pipeline: a single sort into (item, iter) order, and each step
// consuming its predecessor's output (which leaves the staircase join in
// that order) as its predicates filter it. Then it numbers the output
// back into sequence order — document order, or reverse document order
// for the positions of a reverse axis — or, with count, it counts it: a
// trailing Step in the kernel, a trailing filter by an Aggr.
func (c *Compiler) compileChain(ctx ralg.Plan, run []xqp.Step, sc *scope, reverse, count bool) (ralg.Plan, error) {
	q := ralg.Plan(ralg.NewSort(ctx, "item", "iter"))
	for _, s := range run {
		axis, test := axisToSCJ(s.Axis), testToSCJ(s.Test)
		st := &ralg.Step{Axis: axis, Test: test, Variant: c.stepVariant(axis, test),
			IterCol: "iter", ItemCol: "item"}
		st.SetInput(0, q)
		q = st
		for _, pred := range s.Preds {
			var err error
			if q, err = c.filter(q, pred, sc); err != nil {
				return nil, err
			}
		}
	}
	if st, ok := q.(*ralg.Step); ok && count {
		st.Count = true
		return st, nil
	} else if count {
		a := &ralg.Aggr{Part: "iter", Op: ralg.AggCount, Out: "item"}
		a.SetInput(0, q)
		return ralg.NewSort(a, "iter"), nil
	}
	rn := ralg.NewRowNum(q, "pos", []string{"item"}, "iter")
	if reverse {
		rn.Desc = []bool{true}
	}
	return ralg.NewProject(ralg.NewSort(rn, "iter", "pos"), "iter", "pos", "item"), nil
}

// filter keeps the rows of the (item, iter)-ordered step output q whose
// item the predicate holds for, in that order. The predicate cannot see
// position: it is a condition, evaluated with each row its own iteration.
func (c *Compiler) filter(q ralg.Plan, pred xqp.Expr, sc *scope) (ralg.Plan, error) {
	numbered := ralg.NewRowNum(q, "pid", []string{"item", "iter"}, "")
	pscope, _ := predScope(numbered, sc)
	keep, err := c.compileBool(pred, pscope)
	if err != nil {
		return nil, err
	}
	return ralg.NewHashJoin(numbered, keep, "pid", "iter", ralg.Refs("iter", "item"), nil), nil
}

// seesPosition reports whether a predicate list can tell a step's
// context nodes apart by position: one of its predicates refers to
// position() or last(), or may be numeric and so select by position.
func seesPosition(preds []xqp.Expr) bool {
	return slices.ContainsFunc(preds, func(p xqp.Expr) bool { return xqp.PredUsesPosition(p) || !isCondition(p) })
}

// fuseDescendantSteps rewrites the "//" desugaring
// descendant-or-self::node()/child::T into the single step descendant::T
// (and …/descendant::T into descendant::T). The identity holds whenever
// the child step's predicates cannot see position: positions in the
// rewritten step range over each node's descendants rather than each
// intermediate node's children, so boolean predicates are unaffected but
// positional ones are not.
func fuseDescendantSteps(steps []xqp.Step) []xqp.Step {
	var out []xqp.Step
	for i := 0; i < len(steps); i++ {
		s := steps[i]
		if i+1 < len(steps) &&
			s.Axis == xqp.AxisDescendantOrSelf && s.Test.Kind == xqp.TestAnyNode &&
			len(s.Preds) == 0 && s.Expr == nil {
			next := steps[i+1]
			if next.Expr == nil && !seesPosition(next.Preds) &&
				(next.Axis == xqp.AxisChild || next.Axis == xqp.AxisDescendant) {
				next.Axis = xqp.AxisDescendant
				out = append(out, next)
				i++
				continue
			}
		}
		out = append(out, s)
	}
	return out
}

// compileStep applies one step whose predicates can see position to the
// context sequence ctx (iter|pos|item): positions count per context node,
// from the end of the document on a reverse axis, and the result is in
// document order. Over a context of one node per iteration (one) they
// are counted per iteration; elsewhere each context node becomes its own
// iteration, and the results are mapped back and deduplicated.
func (c *Compiler) compileStep(ctx ralg.Plan, s xqp.Step, sc *scope, one bool) (ralg.Plan, error) {
	var mapPlan ralg.Plan
	if !one {
		numbered := ralg.NewRowNum(ctx, "cid", []string{"iter", "pos"}, "")
		mapPlan = ralg.NewProject(numbered, "iter->outer", "cid->inner")
		sc = liftVars(sc, mapPlan, ralg.NewProject(numbered, "cid->iter"))
		cidCtx := ralg.AttachInt(ralg.NewProject(numbered, "cid->iter", "item"), "pos", 1)
		ctx = ralg.NewProject(cidCtx, "iter", "pos", "item")
	}
	seq, err := c.compileChain(ctx, []xqp.Step{{Axis: s.Axis, Test: s.Test}}, sc, s.Axis.Reverse(), false)
	if err == nil {
		seq, err = c.compilePreds(seq, s.Preds, sc)
	}
	if err != nil || one && !s.Axis.Reverse() {
		return seq, err
	}
	// back into document order, on the original iterations without
	// duplicates
	var back ralg.Plan
	if one {
		back = ralg.NewSort(seq, "iter", "item")
	} else {
		j := ralg.NewHashJoin(mapPlan, seq, "inner", "iter", ralg.Refs("outer->iter"), ralg.Refs("item"))
		dist := &ralg.Distinct{By: []string{"iter", "item"}}
		dist.SetInput(0, ralg.NewSort(j, "iter", "item"))
		back = dist
	}
	rn := ralg.NewRowNum(back, "pos2", []string{"item"}, "iter")
	return ralg.NewProject(rn, "iter", "pos2->pos", "item"), nil
}

// compilePreds applies predicates to a sequence relative to sc.loop.
// Statically positional predicates filter on the pos column; general
// predicates spawn a per-item loop with ".", position() and last()
// bindings, exactly like a nested for-loop (§2.1), and keep the items
// whose iterations the predicate holds in. A predicate that is not
// provably a condition (isCondition) carries each item's position into
// EBV, since a numeric value selects by position (XQuery 1.0 §3.2.2).
func (c *Compiler) compilePreds(seq ralg.Plan, preds []xqp.Expr, sc *scope) (ralg.Plan, error) {
	for _, pred := range preds {
		if xqp.PredIsPositional(pred) {
			tab, col, err := c.posValue(seq, pred)
			if err != nil {
				return nil, err
			}
			f := ralg.NewFun(tab, ralg.FunEq, "keep", "pos", col)
			sel := &ralg.Select{Cond: "keep"}
			sel.SetInput(0, f)
			rn := ralg.NewRowNum(sel, "pos2", []string{"pos"}, "iter")
			seq = ralg.NewProject(rn, "iter", "pos2->pos", "item")
			continue
		}
		numbered := ralg.NewRowNum(seq, "pid", []string{"iter", "pos"}, "")
		pscope, mapPlan := predScope(numbered, sc)
		posPlan := ralg.AttachInt(ralg.NewProject(numbered, "pid->iter", "pos->item"), "pos", 1)
		pscope.vars["#pos"] = &binding{plan: ralg.NewProject(posPlan, "iter", "pos", "item"), deps: varset{}}
		cnt := &ralg.Aggr{Part: "iter", Op: ralg.AggCount, Out: "item"}
		cnt.SetInput(0, seq)
		lastPlan := ralg.NewHashJoin(mapPlan, cnt, "outer", "iter",
			ralg.Refs("inner->iter"), ralg.Refs("item"))
		lastPlan2 := ralg.AttachInt(lastPlan, "pos", 1)
		pscope.vars["#last"] = &binding{plan: ralg.NewProject(lastPlan2, "iter", "pos", "item"), deps: varset{}}
		var keep ralg.Plan
		if isCondition(pred) {
			var err error
			if keep, err = c.compileBool(pred, pscope); err != nil {
				return nil, err
			}
		} else {
			q, err := c.compile(pred, pscope)
			if err != nil {
				return nil, err
			}
			ebv := &ralg.EBV{Part: "iter", Item: "item", Pos: "pos"}
			ebv.SetInput(0, ralg.NewHashJoin(q, numbered, "iter", "pid",
				ralg.Refs("iter", "item"), ralg.Refs("pos")))
			keep = ebv
		}
		fj := ralg.NewHashJoin(numbered, keep, "pid", "iter",
			ralg.Refs("iter", "pos", "item"), nil)
		rn := ralg.NewRowNum(fj, "pos2", []string{"pos"}, "iter")
		seq = ralg.NewProject(rn, "iter", "pos2->pos", "item")
	}
	return seq, nil
}

// predScope is the scope of a predicate over the pid-numbered rows of
// numbered: each row is an iteration of its own, with "." bound to its
// item. It also returns the map from numbered's iterations to the rows'.
func predScope(numbered ralg.Plan, sc *scope) (*scope, ralg.Plan) {
	mapPlan := ralg.NewProject(numbered, "iter->outer", "pid->inner")
	pscope := liftVars(sc, mapPlan, ralg.NewProject(numbered, "pid->iter"))
	dot := ralg.AttachInt(ralg.NewProject(numbered, "pid->iter", "item"), "pos", 1)
	pscope.vars["."] = &binding{plan: ralg.NewProject(dot, "iter", "pos", "item"), deps: sc.allDeps(), loop: true}
	return pscope, mapPlan
}

// isCondition reports whether a predicate's value is provably an
// xs:boolean or a node sequence, neither of which selects by position:
// a comparison or logical operator, one of the boolean functions, a
// quantifier, or a path made only of axis steps.
func isCondition(e xqp.Expr) bool {
	switch x := e.(type) {
	case *xqp.Binary:
		return x.Op < xqp.OpAdd // the logical operators and comparisons
	case *xqp.Call:
		return slices.Contains([]string{"not", "exists", "empty", "boolean", "true", "false", "contains", "starts-with"}, x.Name)
	case *xqp.Quantified:
		return true
	case *xqp.Path:
		return !slices.ContainsFunc(x.Steps, func(s xqp.Step) bool { return s.Expr != nil })
	}
	return false
}

// posValue extends the sequence's row table with a column holding the
// positional predicate's value (literal, last(), position(), or
// arithmetic over those), returning the extended plan and column name;
// position() is the pos column itself. last() is joined in once up
// front; the other builders (Attach, Fun) preserve existing columns.
func (c *Compiler) posValue(seq ralg.Plan, e xqp.Expr) (ralg.Plan, string, error) {
	var tab ralg.Plan = seq
	if exprUsesLast(e) {
		cnt := &ralg.Aggr{Part: "iter", Op: ralg.AggCount, Out: "lastv"}
		cnt.SetInput(0, seq)
		tab = ralg.NewHashJoin(seq, cnt, "iter", "iter",
			ralg.Refs("iter", "pos", "item"), ralg.Refs("lastv"))
	}
	gen := 0
	var build func(e xqp.Expr) (string, error)
	build = func(e xqp.Expr) (string, error) {
		gen++
		col := fmt.Sprintf("pv%d", gen)
		switch x := e.(type) {
		case *xqp.Literal:
			switch x.Kind {
			case xqp.LitInt:
				tab = ralg.AttachItem(tab, col, xqt.Int(x.I))
				return col, nil
			case xqp.LitDouble:
				tab = ralg.AttachItem(tab, col, xqt.Double(x.F))
				return col, nil
			}
		case *xqp.Call:
			switch x.Name {
			case "last":
				return "lastv", nil
			case "position":
				return "pos", nil
			}
		case *xqp.Unary:
			c2, err := build(x.X)
			if err != nil {
				return "", err
			}
			tab = ralg.NewFun(tab, ralg.FunNeg, col, c2)
			return col, nil
		case *xqp.Binary:
			cl2, err := build(x.L)
			if err != nil {
				return "", err
			}
			cr2, err := build(x.R)
			if err != nil {
				return "", err
			}
			ops := map[xqp.BinOp]ralg.FunOp{
				xqp.OpAdd: ralg.FunAdd, xqp.OpSub: ralg.FunSub, xqp.OpMul: ralg.FunMul,
				xqp.OpDiv: ralg.FunDiv, xqp.OpIDiv: ralg.FunIDiv, xqp.OpMod: ralg.FunMod,
			}
			tab = ralg.NewFun(tab, ops[x.Op], col, cl2, cr2)
			return col, nil
		}
		return "", fmt.Errorf("xqc: unsupported positional predicate")
	}
	col, err := build(e)
	if err != nil {
		return nil, "", err
	}
	return tab, col, nil
}

func exprUsesLast(e xqp.Expr) bool {
	switch x := e.(type) {
	case *xqp.Call:
		return x.Name == "last"
	case *xqp.Binary:
		return exprUsesLast(x.L) || exprUsesLast(x.R)
	case *xqp.Unary:
		return exprUsesLast(x.X)
	}
	return false
}

// allDeps unions every binding's dependence set (used for the context
// item, which may derive from anything in scope).
func (sc *scope) allDeps() varset {
	out := varset{}
	for _, b := range sc.vars {
		out = out.union(b.deps)
	}
	return out
}
