// Package xqc is the loop-lifting XQuery-to-relational-algebra compiler of
// the engine — the reproduction of the Pathfinder compilation scheme the
// paper builds on (§2.1): every XQuery expression compiles to a plan
// producing an iter|pos|item table relative to the loop relation of its
// scope; for-loops introduce new loops via dense row numbering (ρ) and
// scope map relations; conditionals split loops into iteration sets;
// general comparisons compile to existential joins; and when the two
// sides of a comparison depend on disjoint loop variables, the compiler
// replaces the loop-lifted Cartesian product with a theta-join over the
// two key tables (the paper's join recognition, §4.1–4.2).
package xqc

import (
	"fmt"

	"mxq/internal/ralg"
	"mxq/internal/scj"
	"mxq/internal/xqerr"
	"mxq/internal/xqp"
	"mxq/internal/xqt"
)

// Options control the compilation strategies under study in the paper's
// ablation experiments (Figures 12–14).
type Options struct {
	// JoinRecognition replaces loop-lifted Cartesian products with
	// theta-joins when variable dependences prove independence (Fig. 13).
	JoinRecognition bool
	// ChildVariant / DescVariant select the staircase-join execution
	// strategy for child and descendant steps (Fig. 12).
	ChildVariant scj.Variant
	DescVariant  scj.Variant
	// NametestPushdown pushes element name tests below location steps
	// using the element-name index (Fig. 12's "nametest" configuration).
	NametestPushdown bool
}

// DefaultOptions is the full-strength configuration.
func DefaultOptions() Options {
	return Options{
		JoinRecognition:  true,
		ChildVariant:     scj.LoopLifted,
		DescVariant:      scj.LoopLifted,
		NametestPushdown: true,
	}
}

// Compiler compiles one parsed module.
type Compiler struct {
	opts     Options
	funcs    map[string]*xqp.FuncDecl
	inlining map[string]bool // UDFs on the inline stack (recursion guard)

	// prolog variable declarations: every reference to a prolog
	// variable compiles to a ParamTable leaf resolved from the binding
	// environment at execution time. declLimit enforces declaration
	// order — a declaration's init expression may only reference
	// declarations before it (XPST0008 otherwise).
	prologIdx map[string]int // name -> declaration index
	declLimit int
}

// Param describes one prolog variable of a compiled query, in
// declaration order. Init is the compiled plan of the declaration's
// init/default expression; for an external declaration it may be nil
// (a required parameter — executing without a binding is XPDY0002).
// Non-external declarations (global lets) are evaluated from Init at
// the start of every execution, mirroring the naive interpreter's
// eager prolog evaluation. Singleton records that an external's
// default expression is statically a single item, making multi-item
// bindings the type error XPTY0004.
type Param struct {
	Name      string
	External  bool
	Init      ralg.Plan
	Singleton bool
}

// Compiled is the result of compiling one module: the main physical
// plan plus the prolog parameters to materialize before running it.
// The plan contains a ParamTable leaf per prolog variable reference
// and a ContextRoot leaf per absolute path, so it is independent of
// the bindings and of the engine's current context document — one
// Compiled serves every (bindings, context document) pair.
type Compiled struct {
	Plan   ralg.Plan
	Params []Param
}

// Compile compiles a module to a physical plan whose result table is the
// iter|pos|item encoding of the query result (a single iteration).
func Compile(m *xqp.Module, opts Options) (*Compiled, error) {
	c := &Compiler{
		opts:      opts,
		funcs:     make(map[string]*xqp.FuncDecl),
		inlining:  make(map[string]bool),
		prologIdx: make(map[string]int),
	}
	for _, f := range m.Funcs {
		c.funcs[f.Name] = f
	}
	for i, d := range m.Vars {
		c.prologIdx[d.Name] = i
	}
	out := &Compiled{}
	// compile the init/default expressions in declaration order, each
	// seeing only the declarations before it
	for i, d := range m.Vars {
		prm := Param{Name: d.Name, External: d.External}
		if d.Init != nil {
			c.declLimit = i
			sc := &scope{loop: litLoop1(), vars: map[string]*binding{}}
			q, err := c.compile(d.Init, sc)
			if err != nil {
				return nil, err
			}
			prm.Init = q
			prm.Singleton = d.External && xqp.StaticSingleton(d.Init)
		}
		out.Params = append(out.Params, prm)
	}
	c.declLimit = len(m.Vars)
	sc := &scope{loop: litLoop1(), vars: map[string]*binding{}}
	body, err := c.compile(m.Body, sc)
	if err != nil {
		return nil, err
	}
	out.Plan = body
	return out, nil
}

// prologVar resolves a variable reference against the prolog
// declarations visible at the current declaration limit: the value —
// an execution-time binding — is lifted over the referencing scope's
// loop (a single iteration at the query root, replicated under
// loop-lifting by the enclosing scope maps).
func (c *Compiler) prologVar(name string, sc *scope) (ralg.Plan, bool) {
	idx, ok := c.prologIdx[name]
	if !ok || idx >= c.declLimit {
		return nil, false
	}
	cross := &ralg.Cross{LCols: ralg.Refs("iter"), RCols: ralg.Refs("pos", "item")}
	cross.SetInput(0, ralg.NewProject(sc.loop, "iter"))
	cross.SetInput(1, &ralg.ParamTable{Var: name})
	return cross, true
}

// varset is a set of for-variable names.
type varset map[string]bool

func (v varset) clone() varset {
	out := make(varset, len(v))
	for k := range v {
		out[k] = true
	}
	return out
}

func (v varset) union(o varset) varset {
	out := v.clone()
	for k := range o {
		out[k] = true
	}
	return out
}

// binding is a variable's compiled representation relative to its scope's
// loop, plus the loop variables its value depends on (used for join
// recognition — the paper's indep property). count, when known, is the
// number of items per iteration as an (iter, item) table over the
// iterations that have any (see compileFLWOR); loop marks a for or at
// variable or a predicate's context item, exactly one item per
// iteration.
type binding struct {
	plan  ralg.Plan
	count ralg.Plan
	deps  varset
	loop  bool
}

// scope is a compilation scope: the loop relation and the visible
// variable bindings (all relative to that loop).
type scope struct {
	loop ralg.Plan
	vars map[string]*binding
}

func (sc *scope) clone() *scope {
	vars := make(map[string]*binding, len(sc.vars))
	for k, v := range sc.vars {
		vars[k] = v
	}
	return &scope{loop: sc.loop, vars: vars}
}

// --- small plan constructors -------------------------------------------

func emptySeq() ralg.Plan {
	return &ralg.Lit{Tab: ralg.NewTable([]string{"iter", "pos", "item"}, []xqt.Kind{xqt.KInt, xqt.KInt, xqt.KUntyped})}
}

func litLoop1() ralg.Plan {
	t := ralg.NewTable(nil, nil)
	t.AddCol("iter", ralg.BindInts(1))
	return &ralg.Lit{Tab: t}
}

// litSeq lifts a constant item over the loop: loop × {⟨1, it⟩}.
func litSeq(loop ralg.Plan, it xqt.Item) ralg.Plan {
	p := ralg.AttachInt(ralg.NewProject(loop, "iter"), "pos", 1)
	return ralg.NewProject(ralg.AttachItem(p, "item", it), "iter", "pos", "item")
}

// boolItems turns an (iter, item) relation of xs:boolean values into an
// iter|pos|item sequence of singletons.
func boolItems(b ralg.Plan) ralg.Plan {
	return ralg.NewProject(ralg.AttachInt(b, "pos", 1), "iter", "pos", "item")
}

// boolSeq is a condition in value position: the xs:boolean singleton
// true in the iterations of set, false in the rest of loop.
func boolSeq(set, loop ralg.Plan) ralg.Plan {
	return ralg.NewProject(ralg.AttachInt(densifyBool(set, loop), "pos", 1), "iter", "pos", "item")
}

// cardCheck raises code where an iteration of q holds more than one
// item (XPTY0004 for an operand that must be a single item); the check
// keeps q's rows and positions.
func cardCheck(q ralg.Plan, fn, code string) ralg.Plan {
	cc := &ralg.CardCheck{Part: "iter", Fn: fn, Code: code}
	cc.SetInput(0, q)
	return cc
}

// liftVars maps every binding of sc through the scope map (outer, inner):
// the new bindings are relative to the loop the map's inner column ranges
// over. The map plan must be sorted on inner.
func liftVars(sc *scope, mapPlan ralg.Plan, newLoop ralg.Plan) *scope {
	out := &scope{loop: newLoop, vars: make(map[string]*binding, len(sc.vars))}
	for name, b := range sc.vars {
		j := ralg.NewHashJoin(mapPlan, b.plan, "outer", "iter",
			ralg.Refs("inner->iter"), ralg.Refs("pos", "item"))
		nb := &binding{plan: ralg.NewProject(j, "iter", "pos", "item"), deps: b.deps, loop: b.loop}
		if b.count != nil {
			nb.count = ralg.NewHashJoin(mapPlan, b.count, "outer", "iter",
				ralg.Refs("inner->iter"), ralg.Refs("item"))
		}
		out.vars[name] = nb
	}
	return out
}

// restrictScope semi-joins every binding (and the loop) with subLoop.
func restrictScope(sc *scope, subLoop ralg.Plan) *scope {
	out := &scope{loop: subLoop, vars: make(map[string]*binding, len(sc.vars))}
	for name, b := range sc.vars {
		j := ralg.NewHashJoin(b.plan, subLoop, "iter", "iter",
			ralg.Refs("iter", "pos", "item"), nil)
		nb := &binding{plan: j, deps: b.deps, loop: b.loop}
		if b.count != nil {
			nb.count = ralg.NewHashJoin(b.count, subLoop, "iter", "iter",
				ralg.Refs("iter", "item"), nil)
		}
		out.vars[name] = nb
	}
	return out
}

// densifyBool completes an iteration set to a dense (iter, item)
// relation over loop, sorted on iter: true in set, false elsewhere.
func densifyBool(set, loop ralg.Plan) ralg.Plan {
	u := &ralg.Union{Ins: []ralg.Plan{
		ralg.AttachItem(set, "item", xqt.Bool(true)),
		ralg.AttachItem(complement(loop, set), "item", xqt.Bool(false)),
	}}
	return ralg.NewSort(u, "iter")
}

// complement is the iteration set loop \ set, set any relation with an
// iter column.
func complement(loop, set ralg.Plan) ralg.Plan {
	d := &ralg.Diff{LKey: "iter", RKey: "iter"}
	d.SetInput(0, ralg.NewProject(loop, "iter"))
	d.SetInput(1, set)
	return d
}

// --- dependence analysis (the indep property) ---------------------------

// depsOf computes the set of loop variables the value of e depends on,
// given the bindings visible in sc. Locally introduced variables (inner
// FLWOR/quantifier bindings) are resolved to the dependences of their
// binding sequences.
func (c *Compiler) depsOf(e xqp.Expr, sc *scope) varset {
	env := make(map[string]varset, len(sc.vars))
	for name, b := range sc.vars {
		env[name] = b.deps
	}
	return c.depsWalk(e, env)
}

func (c *Compiler) depsWalk(e xqp.Expr, env map[string]varset) varset {
	out := varset{}
	switch x := e.(type) {
	case nil:
		return out
	case *xqp.Literal, *xqp.EmptySeq:
		return out
	case *xqp.VarRef:
		if d, ok := env[x.Name]; ok {
			return d.clone()
		}
		return out
	case *xqp.ContextItem:
		if d, ok := env["."]; ok {
			return d.clone()
		}
		return out
	case *xqp.Seq:
		for _, it := range x.Items {
			out = out.union(c.depsWalk(it, env))
		}
	case *xqp.If:
		out = c.depsWalk(x.Cond, env).union(c.depsWalk(x.Then, env)).union(c.depsWalk(x.Else, env))
	case *xqp.Binary:
		out = c.depsWalk(x.L, env).union(c.depsWalk(x.R, env))
	case *xqp.Unary:
		out = c.depsWalk(x.X, env)
	case *xqp.Path:
		for _, s := range x.Steps {
			if s.Expr != nil {
				out = out.union(c.depsWalk(s.Expr, env))
			}
			for _, p := range s.Preds {
				out = out.union(c.depsWalk(p, env))
			}
		}
	case *xqp.Call:
		for _, a := range x.Args {
			out = out.union(c.depsWalk(a, env))
		}
		if f, ok := c.funcs[x.Name]; ok {
			// the body may reference parameters; parameters inherit the
			// argument dependences which are already unioned above
			sub := make(map[string]varset, len(f.Params))
			for _, p := range f.Params {
				sub[p] = varset{}
			}
			out = out.union(c.depsWalk(f.Body, sub))
		}
	case *xqp.FLWOR:
		local := cloneEnv(env)
		for _, cl := range x.Clauses {
			switch cl.Kind {
			case xqp.ClauseFor, xqp.ClauseLet:
				d := c.depsWalk(cl.Expr, local)
				out = out.union(d)
				local[cl.Var] = d
				if cl.Pos != "" {
					local[cl.Pos] = d
				}
			case xqp.ClauseWhere:
				out = out.union(c.depsWalk(cl.Expr, local))
			case xqp.ClauseOrder:
				for _, k := range cl.Keys {
					out = out.union(c.depsWalk(k.Expr, local))
				}
			}
		}
		out = out.union(c.depsWalk(x.Return, local))
	case *xqp.Quantified:
		local := cloneEnv(env)
		for i := range x.Vars {
			d := c.depsWalk(x.Seqs[i], local)
			out = out.union(d)
			local[x.Vars[i]] = d
		}
		out = out.union(c.depsWalk(x.Satisfies, local))
	case *xqp.ElemCtor:
		for _, a := range x.Attrs {
			for _, p := range a.Parts {
				out = out.union(c.depsWalk(p, env))
			}
		}
		for _, p := range x.Content {
			out = out.union(c.depsWalk(p, env))
		}
	}
	return out
}

func cloneEnv(env map[string]varset) map[string]varset {
	out := make(map[string]varset, len(env))
	for k, v := range env {
		out[k] = v
	}
	return out
}

// --- expression compilation ---------------------------------------------

// compile translates e into a plan producing iter|pos|item sorted on
// [iter, pos], relative to sc.loop.
func (c *Compiler) compile(e xqp.Expr, sc *scope) (ralg.Plan, error) {
	switch x := e.(type) {
	case *xqp.Literal:
		switch x.Kind {
		case xqp.LitInt:
			return litSeq(sc.loop, xqt.Int(x.I)), nil
		case xqp.LitDouble:
			return litSeq(sc.loop, xqt.Double(x.F)), nil
		default:
			return litSeq(sc.loop, xqt.Str(x.S)), nil
		}
	case *xqp.EmptySeq:
		return emptySeq(), nil
	case *xqp.VarRef:
		if b, ok := sc.vars[x.Name]; ok {
			return b.plan, nil
		}
		if q, ok := c.prologVar(x.Name, sc); ok {
			return q, nil
		}
		return nil, xqerr.Newf("XPST0008", "undeclared variable $%s", x.Name)
	case *xqp.ContextItem:
		b, ok := sc.vars["."]
		if !ok {
			return nil, xqerr.Newf("XPDY0002", "no context item")
		}
		return b.plan, nil
	case *xqp.Seq:
		return c.compileSeqList(x.Items, sc)
	case *xqp.If:
		return c.compileIf(x, sc)
	case *xqp.FLWOR:
		q, _, err := c.compileFLWOR(x, sc)
		return q, err
	case *xqp.Quantified:
		b, err := c.compileBool(x, sc)
		if err != nil {
			return nil, err
		}
		return boolSeq(b, sc.loop), nil
	case *xqp.Binary:
		return c.compileBinary(x, sc)
	case *xqp.Unary:
		q, err := c.compile(x.X, sc)
		if err != nil {
			return nil, err
		}
		f := ralg.NewFun(cardCheck(q, "unary -", "XPTY0004"), ralg.FunNeg, "negv", "item")
		return ralg.NewProject(f, "iter", "pos", "negv->item"), nil
	case *xqp.Path:
		return c.compilePath(x, sc, false)
	case *xqp.Call:
		return c.compileCall(x, sc)
	case *xqp.ElemCtor:
		return c.compileCtor(x, sc)
	}
	return nil, fmt.Errorf("xqc: unhandled expression %T", e)
}

// compileCounted is compile plus e's count plan where one is known (a
// FLWOR's, or a variable's that carries one), nil otherwise. With paths,
// a counted path is compiled to its count plan alone.
func (c *Compiler) compileCounted(e xqp.Expr, sc *scope, paths bool) (q, count ralg.Plan, err error) {
	if paths && counted(e) {
		count, err = c.compilePath(e.(*xqp.Path), sc, true)
		return nil, count, err
	}
	switch x := e.(type) {
	case *xqp.FLWOR:
		return c.compileFLWOR(x, sc)
	case *xqp.VarRef:
		if b, ok := sc.vars[x.Name]; ok {
			return b.plan, b.count, nil
		}
	}
	q, err = c.compile(e, sc)
	return q, nil, err
}

// compileSeqList concatenates the results of a comma list (two items or
// more), re-deriving pos via ρ over (branch ordinal, pos) per iteration.
func (c *Compiler) compileSeqList(items []xqp.Expr, sc *scope) (ralg.Plan, error) {
	parts := make([]ralg.Plan, len(items))
	for i, item := range items {
		q, err := c.compile(item, sc)
		if err != nil {
			return nil, err
		}
		parts[i] = ralg.NewProject(ralg.AttachInt(q, "ord", int64(i)), "iter", "ord", "pos", "item")
	}
	srt := ralg.NewSort(&ralg.Union{Ins: parts}, "iter", "ord", "pos")
	rn := ralg.NewRowNum(srt, "pos2", []string{"ord", "pos"}, "iter")
	return ralg.NewProject(rn, "iter", "pos2->pos", "item"), nil
}

func (c *Compiler) compileIf(x *xqp.If, sc *scope) (ralg.Plan, error) {
	loopT, err := c.compileBool(x.Cond, sc)
	if err != nil {
		return nil, err
	}
	qt, err := c.compile(x.Then, restrictScope(sc, loopT))
	if err != nil {
		return nil, err
	}
	qe, err := c.compile(x.Else, restrictScope(sc, complement(sc.loop, loopT)))
	if err != nil {
		return nil, err
	}
	u := &ralg.Union{Ins: []ralg.Plan{qt, qe}}
	return ralg.NewSort(u, "iter", "pos"), nil
}

func (c *Compiler) compileBinary(x *xqp.Binary, sc *scope) (ralg.Plan, error) {
	switch x.Op {
	case xqp.OpOr, xqp.OpAnd,
		xqp.OpGenEq, xqp.OpGenNe, xqp.OpGenLt, xqp.OpGenLe, xqp.OpGenGt, xqp.OpGenGe:
		b, err := c.compileBool(x, sc)
		if err != nil {
			return nil, err
		}
		return boolSeq(b, sc.loop), nil
	case xqp.OpValEq, xqp.OpValNe, xqp.OpValLt, xqp.OpValLe, xqp.OpValGt, xqp.OpValGe,
		xqp.OpIs, xqp.OpBefore, xqp.OpAfter:
		// empty-propagating singleton comparison: absent iterations stay
		// absent (the result is the empty sequence there)
		ql, qr, err := c.compileBothSingleton(x, sc)
		if err != nil {
			return nil, err
		}
		j := ralg.NewHashJoin(ql, qr, "iter", "iter",
			ralg.Refs("iter", "pos", "item->a"), ralg.Refs("item->b"))
		f := ralg.NewFun(j, cmpFun(x.Op), "val", "a", "b")
		return boolItems(ralg.NewProject(f, "iter", "val->item")), nil
	case xqp.OpAdd, xqp.OpSub, xqp.OpMul, xqp.OpDiv, xqp.OpIDiv, xqp.OpMod:
		ql, qr, err := c.compileBothSingleton(x, sc)
		if err != nil {
			return nil, err
		}
		j := ralg.NewHashJoin(ql, qr, "iter", "iter",
			ralg.Refs("iter", "pos", "item->a"), ralg.Refs("item->b"))
		ops := map[xqp.BinOp]ralg.FunOp{
			xqp.OpAdd: ralg.FunAdd, xqp.OpSub: ralg.FunSub, xqp.OpMul: ralg.FunMul,
			xqp.OpDiv: ralg.FunDiv, xqp.OpIDiv: ralg.FunIDiv, xqp.OpMod: ralg.FunMod,
		}
		f := ralg.NewFun(j, ops[x.Op], "item2", "a", "b")
		return ralg.NewProject(f, "iter", "pos", "item2->item"), nil
	case xqp.OpRange:
		ql, qr, err := c.compileBothSingleton(x, sc)
		if err != nil {
			return nil, err
		}
		j := ralg.NewHashJoin(ql, qr, "iter", "iter",
			ralg.Refs("iter", "item->lo"), ralg.Refs("item->hi"))
		rg := &ralg.RangeGen{Iter: "iter", Lo: "lo", Hi: "hi"}
		rg.SetInput(0, j)
		return rg, nil
	case xqp.OpUnion:
		ql, err := c.compile(x.L, sc)
		if err != nil {
			return nil, err
		}
		qr, err := c.compile(x.R, sc)
		if err != nil {
			return nil, err
		}
		u := &ralg.Union{Ins: []ralg.Plan{ql, qr}}
		srt := ralg.NewSort(u, "iter", "item")
		d := &ralg.Distinct{By: []string{"iter", "item"}}
		d.SetInput(0, srt)
		rn := ralg.NewRowNum(d, "pos2", []string{"item"}, "iter")
		return ralg.NewProject(rn, "iter", "pos2->pos", "item"), nil
	}
	return nil, fmt.Errorf("xqc: unhandled binary operator %v", x.Op)
}

func (c *Compiler) compileBothSingleton(x *xqp.Binary, sc *scope) (ralg.Plan, ralg.Plan, error) {
	ql, err := c.compile(x.L, sc)
	if err != nil {
		return nil, nil, err
	}
	qr, err := c.compile(x.R, sc)
	if err != nil {
		return nil, nil, err
	}
	return cardCheck(ql, x.Op.String(), "XPTY0004"), cardCheck(qr, x.Op.String(), "XPTY0004"), nil
}

// cmpFun is the row-wise comparison of a value, general or node
// comparison operator.
func cmpFun(op xqp.BinOp) ralg.FunOp {
	switch op {
	case xqp.OpValEq, xqp.OpGenEq:
		return ralg.FunEq
	case xqp.OpValNe, xqp.OpGenNe:
		return ralg.FunNe
	case xqp.OpValLt, xqp.OpGenLt:
		return ralg.FunLt
	case xqp.OpValLe, xqp.OpGenLe:
		return ralg.FunLe
	case xqp.OpValGt, xqp.OpGenGt:
		return ralg.FunGt
	case xqp.OpValGe, xqp.OpGenGe:
		return ralg.FunGe
	case xqp.OpIs:
		return ralg.FunNodeIs
	case xqp.OpBefore:
		return ralg.FunNodeBefore
	case xqp.OpAfter:
		return ralg.FunNodeAfter
	}
	panic("xqc: not a comparison")
}

// compileBool compiles e in filter position: it returns the iteration
// set where e's effective boolean value is true, the duplicate-free
// (iter) relation of those iterations of sc.loop, sorted on iter.
// Conjunction is a semijoin, disjunction a union, negation the
// complement in sc.loop.
func (c *Compiler) compileBool(e xqp.Expr, sc *scope) (ralg.Plan, error) {
	switch x := e.(type) {
	case *xqp.Binary:
		switch x.Op {
		case xqp.OpOr, xqp.OpAnd:
			bl, err := c.compileBool(x.L, sc)
			if err != nil {
				return nil, err
			}
			br, err := c.compileBool(x.R, sc)
			if err != nil {
				return nil, err
			}
			if x.Op == xqp.OpAnd {
				return ralg.NewHashJoin(bl, br, "iter", "iter", ralg.Refs("iter"), nil), nil
			}
			return distinctIters(ralg.NewSort(&ralg.Union{Ins: []ralg.Plan{bl, br}}, "iter")), nil
		case xqp.OpGenEq, xqp.OpGenNe, xqp.OpGenLt, xqp.OpGenLe, xqp.OpGenGt, xqp.OpGenGe:
			return c.compileGeneralCmp(x, sc)
		}
	case *xqp.Call:
		switch x.Name {
		case "not":
			if len(x.Args) == 1 {
				b, err := c.compileBool(x.Args[0], sc)
				if err != nil {
					return nil, err
				}
				return complement(sc.loop, b), nil
			}
		case "boolean":
			if len(x.Args) == 1 {
				return c.compileBool(x.Args[0], sc)
			}
		case "exists", "empty":
			if len(x.Args) == 1 {
				present, err := c.nonEmpty(x.Args[0], sc)
				if err != nil {
					return nil, err
				}
				if x.Name == "empty" {
					return complement(sc.loop, present), nil
				}
				return present, nil
			}
		case "true":
			return ralg.NewProject(sc.loop, "iter"), nil
		case "false":
			return &ralg.Lit{Tab: ralg.NewTable([]string{"iter"}, []xqt.Kind{xqt.KInt})}, nil
		}
	case *xqp.Quantified:
		return c.compileBool(desugarQuantified(x), sc)
	}
	if counted(e) { // a node sequence: its effective boolean value is exists
		return c.nonEmpty(e, sc)
	}
	// generic fallback: the iterations whose sequence's effective
	// boolean value is true
	q, err := c.compile(e, sc)
	if err != nil {
		return nil, err
	}
	ebv := &ralg.EBV{Part: "iter", Item: "item"}
	ebv.SetInput(0, q)
	return ebv, nil
}

// nonEmpty is the set of iterations in which e has an item: those of
// its count plan where e is a counted path, else the distinct iterations
// of its rows.
func (c *Compiler) nonEmpty(e xqp.Expr, sc *scope) (ralg.Plan, error) {
	if counted(e) {
		q, err := c.compilePath(e.(*xqp.Path), sc, true)
		return ralg.NewProject(q, "iter"), err
	}
	q, err := c.compile(e, sc)
	if err != nil {
		return nil, err
	}
	return distinctIters(ralg.NewProject(q, "iter")), nil
}

// distinctIters removes the duplicates from an iter column sorted on
// iter.
func distinctIters(iters ralg.Plan) ralg.Plan {
	d := &ralg.Distinct{By: []string{"iter"}}
	d.SetInput(0, iters)
	return d
}

// compileGeneralCmp compiles a same-loop existential general comparison
// to the iterations where it holds: join both sides on iter, compare,
// and keep the distinct iterations of the satisfied pairs (Fig. 8a).
// The pairs share one iteration, so their number is linear in either
// side wherever the other holds one item per iteration; Fig. 8(b)'s
// extremum reduction belongs to the existential join (ralg.ExistJoin),
// whose comparison domain is read off the data, not the syntax.
func (c *Compiler) compileGeneralCmp(x *xqp.Binary, sc *scope) (ralg.Plan, error) {
	ql, err := c.compile(x.L, sc)
	if err != nil {
		return nil, err
	}
	qr, err := c.compile(x.R, sc)
	if err != nil {
		return nil, err
	}
	j := ralg.NewHashJoin(ql, qr, "iter", "iter",
		ralg.Refs("iter", "item->a"), ralg.Refs("item->b"))
	f := ralg.NewFun(j, cmpFun(x.Op), "hit", "a", "b")
	sel := &ralg.Select{Cond: "hit"}
	sel.SetInput(0, f)
	return distinctIters(ralg.NewProject(sel, "iter")), nil
}

func genCmpOp(op xqp.BinOp) xqt.CmpOp {
	switch op {
	case xqp.OpGenEq:
		return xqt.CmpEq
	case xqp.OpGenNe:
		return xqt.CmpNe
	case xqp.OpGenLt:
		return xqt.CmpLt
	case xqp.OpGenLe:
		return xqt.CmpLe
	case xqp.OpGenGt:
		return xqt.CmpGt
	case xqp.OpGenGe:
		return xqt.CmpGe
	}
	panic("xqc: not a general comparison")
}

// desugarQuantified rewrites quantifiers into FLWOR emptiness tests:
//
//	some $v in E satisfies P  ≡  exists(for $v in E where P return 1)
//	every $v in E satisfies P ≡  empty(for $v in E where not(P) return 1)
func desugarQuantified(q *xqp.Quantified) xqp.Expr {
	fl := &xqp.FLWOR{Return: &xqp.Literal{Kind: xqp.LitInt, I: 1}}
	for i := range q.Vars {
		fl.Clauses = append(fl.Clauses, xqp.Clause{Kind: xqp.ClauseFor, Var: q.Vars[i], Expr: q.Seqs[i]})
	}
	cond := q.Satisfies
	fn := "exists"
	if q.Every {
		cond = &xqp.Call{Name: "not", Args: []xqp.Expr{cond}}
		fn = "empty"
	}
	fl.Clauses = append(fl.Clauses, xqp.Clause{Kind: xqp.ClauseWhere, Expr: cond})
	return &xqp.Call{Name: fn, Args: []xqp.Expr{fl}}
}
