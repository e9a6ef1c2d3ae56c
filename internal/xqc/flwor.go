package xqc

import (
	"fmt"

	"mxq/internal/ralg"
	"mxq/internal/xqp"
	"mxq/internal/xqt"
)

// compileFLWOR translates a FLWOR expression. Each for clause introduces
// a new loop via dense row numbering; the chain map (outer, inner) tracks
// the composition of the scope maps so the result can be back-mapped to
// the enclosing scope in one join. Where clauses restrict the loop to
// the iterations where they hold; order-by re-derives positions by ranking over the key
// values.
//
// It also returns the FLWOR's count plan, the number of result items per
// enclosing iteration, when that needs no return plan: without order by,
// a for (or at) variable as the return yields one item, and no error, per
// chain row, so the count is the chain's rows per outer iteration, and
// when the chain is one recognized join it is the join's count mode.
// Otherwise count is nil.
func (c *Compiler) compileFLWOR(f *xqp.FLWOR, sc0 *scope) (plan, count ralg.Plan, err error) {
	cur := sc0.clone()
	// chain: (outer, inner) composition of the scope maps; nil means the
	// identity (no for clause processed yet), which keeps the common
	// single-for back-map a single positional join
	var chainPlan ralg.Plan
	var orderKeys []xqp.OrderKey
	var join *ralg.ExistJoin // the chain is this recognized join and nothing else

	clauses := append([]xqp.Clause(nil), f.Clauses...)
	for i := 0; i < len(clauses); i++ {
		cl := clauses[i]
		switch cl.Kind {
		case xqp.ClauseFor:
			// join recognition: a for over an independent sequence whose
			// immediately following where contains a comparison linking
			// the new variable to the enclosing loops compiles to a
			// theta-join instead of a loop-lifted Cartesian product
			if c.opts.JoinRecognition && i+1 < len(clauses) && clauses[i+1].Kind == xqp.ClauseWhere {
				newCur, newChain, j, residual, ok, err := c.tryJoinFor(cl, clauses[i+1].Expr, cur, chainPlan)
				if err != nil {
					return nil, nil, err
				}
				if ok {
					join = nil
					if chainPlan == nil && residual == nil {
						join = j
					}
					cur, chainPlan = newCur, newChain
					if residual != nil {
						clauses[i+1].Expr = residual
					} else {
						clauses = append(clauses[:i+1], clauses[i+2:]...)
					}
					continue
				}
			}
			newCur, newChain, err := c.standardFor(cl, cur, chainPlan)
			if err != nil {
				return nil, nil, err
			}
			cur, chainPlan, join = newCur, newChain, nil
		case xqp.ClauseLet:
			q, cnt, err := c.compileCounted(cl.Expr, cur, false)
			if err != nil {
				return nil, nil, err
			}
			cur = cur.clone()
			cur.vars[cl.Var] = &binding{plan: q, count: cnt, deps: c.depsOf(cl.Expr, cur)}
		case xqp.ClauseWhere:
			join = nil
			subLoop, err := c.compileBool(cl.Expr, cur)
			if err != nil {
				return nil, nil, err
			}
			cur = restrictScope(cur, subLoop)
			if chainPlan == nil {
				chainPlan = ralg.NewProject(subLoop, "iter->outer", "iter->inner")
			} else {
				chainPlan = ralg.NewHashJoin(chainPlan, subLoop, "inner", "iter",
					ralg.Refs("outer", "inner"), nil)
			}
		case xqp.ClauseOrder:
			orderKeys = cl.Keys
		}
	}

	qr, err := c.compile(f.Return, cur)
	if err != nil {
		return nil, nil, err
	}
	if chainPlan == nil && len(orderKeys) == 0 {
		return qr, nil, nil // identity chain: the result is already back-mapped
	}
	if chainPlan == nil {
		chainPlan = ralg.NewProject(cur.loop, "iter->outer", "iter->inner")
	}
	if len(orderKeys) == 0 {
		if v, ok := f.Return.(*xqp.VarRef); ok && cur.vars[v.Name] != nil && cur.vars[v.Name].loop {
			count = countChain(chainPlan, join)
		}
		j := ralg.NewHashJoin(chainPlan, qr, "inner", "iter",
			ralg.Refs("outer", "inner"), ralg.Refs("pos", "item"))
		rn := ralg.NewRowNum(j, "pos2", []string{"inner", "pos"}, "outer")
		return ralg.NewProject(rn, "outer->iter", "pos2->pos", "item"), count, nil
	}

	// order by: attach the key values to the chain (absent keys sort
	// first), rank per outer iteration, then back-map with the rank as
	// the major position
	keyed := chainPlan
	keyCols := make([]string, len(orderKeys))
	desc := make([]bool, len(orderKeys))
	carried := []string{"outer", "inner"}
	for ki, k := range orderKeys {
		kq, err := c.compile(k.Expr, cur)
		if err != nil {
			return nil, nil, err
		}
		// order keys are atomized singletons
		at := ralg.NewFun(cardCheck(kq, "order by", "XPTY0004"), ralg.FunAtomize, "av", "item")
		kq = ralg.NewProject(at, "iter", "pos", "av->item")
		col := fmt.Sprintf("key%d", ki)
		keyCols[ki] = col
		desc[ki] = k.Desc
		present := ralg.NewHashJoin(keyed, kq, "inner", "iter",
			ralg.Refs(carried...), ralg.Refs("item->"+col))
		missing := &ralg.Diff{LKey: "inner", RKey: "iter"}
		missing.SetInput(0, keyed)
		missing.SetInput(1, kq)
		filled := ralg.NewProject(ralg.AttachItem(missing, col, xqt.EmptyLeast),
			append(append([]string{}, carried...), col)...)
		u := &ralg.Union{Ins: []ralg.Plan{present, filled}}
		keyed = ralg.NewSort(u, "inner")
		carried = append(carried, col)
	}
	rn := &ralg.RowNum{Out: "rnk", OrderBy: append(append([]string{}, keyCols...), "inner"),
		Desc: append(append([]bool{}, desc...), false), Part: "outer"}
	rn.SetInput(0, keyed)
	j := ralg.NewHashJoin(rn, qr, "inner", "iter",
		ralg.Refs("outer", "rnk"), ralg.Refs("pos", "item"))
	srt := ralg.NewSort(j, "outer", "rnk", "pos")
	rn2 := ralg.NewRowNum(srt, "pos2", []string{"rnk", "pos"}, "outer")
	return ralg.NewProject(rn2, "outer->iter", "pos2->pos", "item"), nil, nil
}

// countChain is the count plan of a FLWOR that returns one item per chain
// row: the chain's rows per outer iteration, or the count mode of the
// chain's one recognized join.
func countChain(chainPlan ralg.Plan, join *ralg.ExistJoin) ralg.Plan {
	if join != nil {
		cj := *join
		cj.Out1, cj.Out2, cj.Count = "iter", "n", true
		return ralg.NewProject(&cj, "iter", "n->item")
	}
	a := &ralg.Aggr{Part: "outer", Op: ralg.AggCount, Out: "item"}
	a.SetInput(0, chainPlan)
	return ralg.NewProject(a, "outer->iter", "item")
}

// standardFor is the textbook loop-lifting of one for clause (§2.1): the
// binding sequence's rows, numbered densely in (iter, pos) order, become
// the iterations of the new loop; visible variables are mapped in through
// the scope map.
func (c *Compiler) standardFor(cl xqp.Clause, cur *scope, chainPlan ralg.Plan) (*scope, ralg.Plan, error) {
	q1, err := c.compile(cl.Expr, cur)
	if err != nil {
		return nil, nil, err
	}
	if cl.Pos != "" {
		q1 = ralg.NewRowNum(q1, "prank", []string{"pos"}, "iter")
	}
	numbered := ralg.NewRowNum(q1, "inner", []string{"iter", "pos"}, "")
	mapPlan := ralg.NewProject(numbered, "iter->outer", "inner")
	newLoop := ralg.NewProject(numbered, "inner->iter")
	newCur := liftVars(cur, mapPlan, newLoop)
	vb := ralg.AttachInt(ralg.NewProject(numbered, "inner->iter", "item"), "pos", 1)
	newCur.vars[cl.Var] = &binding{
		plan: ralg.NewProject(vb, "iter", "pos", "item"),
		deps: varset{cl.Var: true},
		loop: true,
	}
	if cl.Pos != "" {
		pb := ralg.AttachInt(ralg.NewProject(numbered, "inner->iter", "prank->item"), "pos", 1)
		newCur.vars[cl.Pos] = &binding{
			plan: ralg.NewProject(pb, "iter", "pos", "item"),
			deps: varset{cl.Var: true},
			loop: true,
		}
	}
	return newCur, composeChain(chainPlan, mapPlan), nil
}

// composeChain joins a (outer, inner) scope map onto the chain so far; a
// nil chain is the identity.
func composeChain(chainPlan, mapPlan ralg.Plan) ralg.Plan {
	if chainPlan == nil {
		return mapPlan
	}
	j := ralg.NewHashJoin(mapPlan, chainPlan, "outer", "inner",
		ralg.Refs("inner"), ralg.Refs("outer"))
	return ralg.NewProject(j, "outer", "inner")
}

// tryJoinFor attempts the join-recognition rewrite for "for $v in E2
// where ... cmp ...". Requirements (the indep property, §4.1):
//
//   - E2 must not depend on any enclosing loop variable;
//   - one conjunct of the where clause must be a general comparison with
//     one side depending exactly on $v and the other side depending on
//     enclosing loop variables but not on $v.
//
// The rewrite compiles E2 once (in a fresh single-iteration loop),
// evaluates the two key expressions in their natural scopes, joins them
// with an existential theta-join, and rebuilds the inner loop from the
// surviving (outer, binding) pairs — avoiding the |outer| × |E2|
// Cartesian product entirely. It also returns the join itself.
func (c *Compiler) tryJoinFor(cl xqp.Clause, where xqp.Expr, cur *scope, chainPlan ralg.Plan) (*scope, ralg.Plan, *ralg.ExistJoin, xqp.Expr, bool, error) {
	if len(c.depsOf(cl.Expr, cur)) != 0 {
		return nil, nil, nil, nil, false, nil
	}
	conjuncts := splitAnd(where)
	// probe scope: $v visible with deps {v}
	probe := cur.clone()
	probe.vars[cl.Var] = &binding{deps: varset{cl.Var: true}}
	if cl.Pos != "" {
		probe.vars[cl.Pos] = &binding{deps: varset{cl.Var: true}}
	}
	// every dependence is a for variable of an enclosing loop, so a side
	// with any dependence varies with those loops
	match := -1
	var vSide, oSide xqp.Expr
	var cmp xqt.CmpOp
	for ci, cj := range conjuncts {
		b, ok := cj.(*xqp.Binary)
		if !ok {
			continue
		}
		switch b.Op {
		case xqp.OpGenEq, xqp.OpGenLt, xqp.OpGenLe, xqp.OpGenGt, xqp.OpGenGe:
		default:
			continue
		}
		dl := c.depsOf(b.L, probe)
		dr := c.depsOf(b.R, probe)
		vInL, vInR := dl[cl.Var], dr[cl.Var]
		switch {
		case vInL && !vInR && len(dl) == 1 && len(dr) > 0:
			vSide, oSide, cmp = b.L, b.R, genCmpOp(b.Op).Swap() // oSide cmp' vSide
			match = ci
		case vInR && !vInL && len(dr) == 1 && len(dl) > 0:
			vSide, oSide, cmp = b.R, b.L, genCmpOp(b.Op)
			match = ci
		}
		if match >= 0 {
			break
		}
	}
	if match < 0 {
		return nil, nil, nil, nil, false, nil
	}

	// compile E2 once, in a fresh single-iteration loop. Compile errors
	// in this speculative scope abandon the rewrite instead of failing
	// the query: standardFor recompiles the clause in its natural scope
	// and surfaces any genuine static error there.
	baseScope := &scope{loop: litLoop1(), vars: map[string]*binding{}}
	qb, err := c.compile(cl.Expr, baseScope)
	if err != nil {
		return nil, nil, nil, nil, false, nil
	}
	numbered := ralg.NewRowNum(qb, "bid", []string{"iter", "pos"}, "")
	if cl.Pos != "" {
		numbered = ralg.NewRowNum(numbered, "prank", []string{"pos"}, "iter")
	}
	baseLoop := ralg.NewProject(numbered, "bid->iter")
	vbBase := ralg.AttachInt(ralg.NewProject(numbered, "bid->iter", "item"), "pos", 1)
	vScope := &scope{
		loop: baseLoop,
		vars: map[string]*binding{cl.Var: {plan: ralg.NewProject(vbBase, "iter", "pos", "item"), deps: varset{cl.Var: true}}},
	}
	qv, err := c.compile(vSide, vScope)
	if err != nil {
		return nil, nil, nil, nil, false, nil
	}
	qo, err := c.compile(oSide, cur)
	if err != nil {
		return nil, nil, nil, nil, false, nil
	}
	// existential theta-join: (outer iter, binding id) pairs
	join := &ralg.ExistJoin{
		Cmp:   cmp,
		LIter: "iter", LItem: "item", RIter: "iter", RItem: "item",
		Out1: "o", Out2: "b",
	}
	join.SetInput(0, qo)
	join.SetInput(1, qv)
	pairs := ralg.NewRowNum(join, "inner", []string{"o", "b"}, "")
	newLoop := ralg.NewProject(pairs, "inner->iter")
	mapPlan := ralg.NewProject(pairs, "o->outer", "inner")
	newCur := liftVars(cur, mapPlan, newLoop)
	// $v's binding: look the surviving binding ids up in the base table
	vb := ralg.NewHashJoin(pairs, numbered, "b", "bid",
		ralg.Refs("inner->iter"), ralg.Refs("item"))
	newCur.vars[cl.Var] = &binding{
		plan: ralg.NewProject(ralg.AttachInt(vb, "pos", 1), "iter", "pos", "item"),
		deps: varset{cl.Var: true},
		loop: true,
	}
	if cl.Pos != "" {
		pj := ralg.NewHashJoin(pairs, numbered, "b", "bid",
			ralg.Refs("inner->iter"), ralg.Refs("prank->item"))
		newCur.vars[cl.Pos] = &binding{
			plan: ralg.NewProject(ralg.AttachInt(pj, "pos", 1), "iter", "pos", "item"),
			deps: varset{cl.Var: true},
			loop: true,
		}
	}
	residual := joinConjuncts(conjuncts, match)
	return newCur, composeChain(chainPlan, mapPlan), join, residual, true, nil
}

// splitAnd flattens a conjunction into its conjuncts.
func splitAnd(e xqp.Expr) []xqp.Expr {
	if b, ok := e.(*xqp.Binary); ok && b.Op == xqp.OpAnd {
		return append(splitAnd(b.L), splitAnd(b.R)...)
	}
	return []xqp.Expr{e}
}

// joinConjuncts rebuilds a conjunction without conjunct skip; nil if none
// remain.
func joinConjuncts(cs []xqp.Expr, skip int) xqp.Expr {
	var out xqp.Expr
	for i, cj := range cs {
		if i == skip {
			continue
		}
		if out == nil {
			out = cj
		} else {
			out = &xqp.Binary{Op: xqp.OpAnd, L: out, R: cj}
		}
	}
	return out
}
