package xqc

import (
	"fmt"

	"mxq/internal/ralg"
	"mxq/internal/scj"
	"mxq/internal/xqerr"
	"mxq/internal/xqp"
	"mxq/internal/xqt"
)

func axisToSCJ(a xqp.Axis) scj.Axis {
	switch a {
	case xqp.AxisChild:
		return scj.Child
	case xqp.AxisDescendant:
		return scj.Descendant
	case xqp.AxisDescendantOrSelf:
		return scj.DescendantOrSelf
	case xqp.AxisSelf:
		return scj.Self
	case xqp.AxisParent:
		return scj.Parent
	case xqp.AxisAncestor:
		return scj.Ancestor
	case xqp.AxisAncestorOrSelf:
		return scj.AncestorOrSelf
	case xqp.AxisFollowing:
		return scj.Following
	case xqp.AxisPreceding:
		return scj.Preceding
	case xqp.AxisFollowingSibling:
		return scj.FollowingSibling
	case xqp.AxisPrecedingSibling:
		return scj.PrecedingSibling
	}
	panic("xqc: attribute axis handled separately")
}

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

func (c *Compiler) compilePath(p *xqp.Path, sc *scope) (ralg.Plan, error) {
	var ctx ralg.Plan
	steps := p.Steps
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
		run := 0
		for run < len(steps) && steps[run].Expr == nil && len(steps[run].Preds) == 0 {
			run++
		}
		if run > 0 {
			ctx, steps = c.compileChain(ctx, steps[:run], false), steps[run:]
			continue
		}
		q, err := c.compileStep(ctx, steps[0], sc)
		if err != nil {
			return nil, err
		}
		ctx, steps = q, steps[1:]
	}
	return ctx, nil
}

// compileChain applies a run of predicate-free axis steps to the context
// sequence ctx (iter|pos|item) as one staircase pipeline: a single sort
// into (item, iter) order, each step consuming its predecessor's output
// (which leaves the staircase join in that order), and a single
// numbering back into sequence order after the last step — document
// order, or reverse document order for the positions of a reverse axis.
func (c *Compiler) compileChain(ctx ralg.Plan, run []xqp.Step, reverse bool) ralg.Plan {
	q := ralg.Plan(ralg.NewSort(ctx, "item", "iter"))
	for _, s := range run {
		q = c.stepOp(q, s)
	}
	rn := ralg.NewRowNum(q, "pos", []string{"item"}, "iter")
	if reverse {
		rn.Desc = []bool{true}
	}
	return ralg.NewProject(ralg.NewSort(rn, "iter", "pos"), "iter", "pos", "item")
}

// fuseDescendantSteps rewrites the "//" desugaring
// descendant-or-self::node()/child::T into the single step descendant::T
// (and …/descendant::T into descendant::T). The identity holds whenever
// the child step carries no positional predicate: positions in the
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
			positional := false
			for _, p := range next.Preds {
				positional = positional || xqp.PredUsesPosition(p)
			}
			if next.Expr == nil && !positional &&
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

// compileStep applies one predicated axis step to the context sequence
// ctx (iter|pos|item). Each context node becomes its own iteration so
// positional predicates see per-context-node positions (counted from the
// end of the document on a reverse axis), and results are deduplicated
// afterwards.
func (c *Compiler) compileStep(ctx ralg.Plan, s xqp.Step, sc *scope) (ralg.Plan, error) {
	if s.Expr != nil {
		return nil, fmt.Errorf("xqc: primary expression in non-initial path step")
	}
	numbered := ralg.NewRowNum(ctx, "cid", []string{"iter", "pos"}, "")
	mapPlan := ralg.NewProject(numbered, "iter->outer", "cid->inner")
	cidLoop := ralg.NewProject(numbered, "cid->iter")
	cidCtx := ralg.AttachInt(ralg.NewProject(numbered, "cid->iter", "item"), "pos", 1)
	seq := c.compileChain(ralg.NewProject(cidCtx, "iter", "pos", "item"), []xqp.Step{s}, s.Axis.Reverse())
	pscope := liftVars(sc, mapPlan, cidLoop)
	filtered, err := c.compilePreds(seq, s.Preds, pscope)
	if err != nil {
		return nil, err
	}
	// map back to the original iterations, dedup, restore document order
	back := ralg.NewHashJoin(mapPlan, filtered, "inner", "iter",
		ralg.Refs("outer"), ralg.Refs("item"))
	srt2 := ralg.NewSort(back, "outer", "item")
	dist := &ralg.Distinct{By: []string{"outer", "item"}}
	dist.SetInput(0, srt2)
	rn2 := ralg.NewRowNum(dist, "pos", []string{"item"}, "outer")
	return ralg.NewProject(rn2, "outer->iter", "pos", "item"), nil
}

// stepOp emits the location step operator itself (its predicates
// aside) over an (item, iter)-sorted context.
func (c *Compiler) stepOp(srt ralg.Plan, s xqp.Step) ralg.Plan {
	if s.Axis == xqp.AxisAttribute {
		as := &ralg.AttrStep{NameTest: s.Test.Name, IterCol: "iter", ItemCol: "item"}
		as.SetInput(0, srt)
		return as
	}
	axis := axisToSCJ(s.Axis)
	test := testToSCJ(s.Test)
	st := &ralg.Step{Axis: axis, Test: test, Variant: c.stepVariant(axis, test),
		IterCol: "iter", ItemCol: "item"}
	st.SetInput(0, srt)
	return st
}

// compilePreds applies predicates to a sequence relative to sc.loop.
// Statically positional predicates filter on the pos column; general
// predicates spawn a per-item loop with ".", position() and last()
// bindings, exactly like a nested for-loop (§2.1).
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
		mapPlan := ralg.NewProject(numbered, "iter->outer", "pid->inner")
		pidLoop := ralg.NewProject(numbered, "pid->iter")
		pscope := liftVars(sc, mapPlan, pidLoop)
		dot := ralg.AttachInt(ralg.NewProject(numbered, "pid->iter", "item"), "pos", 1)
		pscope.vars["."] = &binding{plan: ralg.NewProject(dot, "iter", "pos", "item"), deps: sc.allDeps()}
		posIt := &ralg.ColToItem{Src: "pos", Dst: "item2"}
		posIt.SetInput(0, numbered)
		posPlan := ralg.AttachInt(ralg.NewProject(posIt, "pid->iter", "item2->item"), "pos", 1)
		pscope.vars["#pos"] = &binding{plan: ralg.NewProject(posPlan, "iter", "pos", "item"), deps: varset{}}
		cnt := &ralg.Aggr{Part: "iter", Op: ralg.AggCount, Out: "item"}
		cnt.SetInput(0, seq)
		lastPlan := ralg.NewHashJoin(mapPlan, cnt, "outer", "iter",
			ralg.Refs("inner->iter"), ralg.Refs("item"))
		lastPlan2 := ralg.AttachInt(lastPlan, "pos", 1)
		pscope.vars["#last"] = &binding{plan: ralg.NewProject(lastPlan2, "iter", "pos", "item"), deps: varset{}}
		bp, err := c.compileBool(pred, pscope)
		if err != nil {
			return nil, err
		}
		sel := &ralg.Select{Cond: "val"}
		sel.SetInput(0, bp)
		keep := ralg.NewProject(sel, "iter")
		fj := ralg.NewHashJoin(numbered, keep, "pid", "iter",
			ralg.Refs("iter", "pos", "item"), nil)
		rn := ralg.NewRowNum(fj, "pos2", []string{"pos"}, "iter")
		seq = ralg.NewProject(rn, "iter", "pos2->pos", "item")
	}
	return seq, nil
}

// posValue extends the sequence's row table with an item column holding
// the positional predicate's value (literal, last(), position(), or
// arithmetic over those), returning the extended plan and column name.
// last() is joined in once up front; all other builders (Attach, Fun,
// ColToItem) preserve existing columns.
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
				ci := &ralg.ColToItem{Src: "pos", Dst: col}
				ci.SetInput(0, tab)
				tab = ci
				return col, nil
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
