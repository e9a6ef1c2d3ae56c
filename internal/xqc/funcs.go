package xqc

import (
	"fmt"

	"mxq/internal/ralg"
	"mxq/internal/xqerr"
	"mxq/internal/xqp"
	"mxq/internal/xqt"
)

func (c *Compiler) compileCall(x *xqp.Call, sc *scope) (ralg.Plan, error) {
	if f, ok := c.funcs[x.Name]; ok {
		return c.inlineUDF(f, x, sc)
	}
	switch x.Name {
	case "true":
		return litSeq(sc.loop, xqt.Bool(true)), nil
	case "false":
		return litSeq(sc.loop, xqt.Bool(false)), nil
	case "doc", "collection":
		if len(x.Args) != 1 {
			return nil, xqerr.Newf("XPST0017", "%s expects 1 argument", x.Name)
		}
		// fn:doc / fn:collection take xs:string?: a statically empty
		// argument yields the empty sequence.
		if _, isEmpty := x.Args[0].(*xqp.EmptySeq); isEmpty {
			return emptySeq(), nil
		}
		// The argument is evaluated at plan time when it is constant-
		// foldable (literals, concat/string over literals); a truly
		// runtime-valued argument compiles to a Fail operator that raises
		// a clear dynamic error when the plan executes.
		var root ralg.Plan
		name, foldable := constString(x.Args[0])
		switch {
		case !foldable:
			// static checks (undeclared variables, unknown functions)
			// still apply to the argument even though its value is unused
			if _, err := c.compileArg(x, 0, sc); err != nil {
				return nil, err
			}
			var code, msg string
			if s, multi := x.Args[0].(*xqp.Seq); multi && len(s.Items) > 1 {
				// statically more than one item: the xs:string? type
				// error, matching the naive oracle
				code = "XPTY0004"
				msg = fmt.Sprintf("%s() argument is a sequence of %d items", x.Name, len(s.Items))
			} else {
				code = "FODC0004"
				if x.Name == "doc" {
					code = "FODC0002"
				}
				msg = fmt.Sprintf("%s() argument is not a constant string expression (this engine resolves %s names at plan time)", x.Name, x.Name)
			}
			root = &ralg.Fail{Code: code, Msg: msg}
		case x.Name == "doc":
			root = &ralg.DocRoot{Doc: name}
		default:
			root = &ralg.CollectionRoot{Coll: name}
		}
		cross := &ralg.Cross{LCols: ralg.Refs("iter"), RCols: ralg.Refs("pos", "item")}
		cross.SetInput(0, ralg.NewProject(sc.loop, "iter"))
		cross.SetInput(1, root)
		return cross, nil
	case "not", "boolean", "exists", "empty":
		b, err := c.compileBool(x, sc)
		if err != nil {
			return nil, err
		}
		return boolSeq(b, sc.loop), nil
	case "count", "sum", "avg", "min", "max":
		return c.compileAggr(x, sc)
	case "string", "data", "number", "name", "local-name",
		"floor", "ceiling", "round", "string-length":
		return c.compileUnaryFn(x, sc)
	case "contains", "starts-with":
		return c.compileStringCmp(x, sc)
	case "concat":
		return c.compileConcat(x, sc)
	case "distinct-values":
		q, err := c.compileArg(x, 0, sc)
		if err != nil {
			return nil, err
		}
		at := ralg.NewFun(q, ralg.FunAtomize, "av", "item")
		proj := ralg.NewProject(at, "iter", "pos", "av->item")
		d := &ralg.Distinct{By: []string{"iter", "item"}}
		d.SetInput(0, proj)
		rn := ralg.NewRowNum(d, "pos2", []string{"pos"}, "iter")
		return ralg.NewProject(rn, "iter", "pos2->pos", "item"), nil
	case "zero-or-one", "exactly-one", "one-or-more":
		return c.compileCardinality(x, sc)
	case "last":
		if b, ok := sc.vars["#last"]; ok {
			return b.plan, nil
		}
		return nil, xqerr.Newf("XPDY0002", "last() outside a predicate")
	case "position":
		if b, ok := sc.vars["#pos"]; ok {
			return b.plan, nil
		}
		return nil, xqerr.Newf("XPDY0002", "position() outside a predicate")
	}
	return nil, xqerr.Newf("XPST0017", "unknown function %s#%d", x.Name, len(x.Args))
}

// constString statically evaluates e to a string when it is constant-
// foldable: string/numeric literals, a parenthesized foldable singleton,
// string() of a foldable expression, and concat() over foldable
// arguments. It reports ok=false for anything depending on runtime data.
func constString(e xqp.Expr) (string, bool) {
	switch x := e.(type) {
	case *xqp.Literal:
		switch x.Kind {
		case xqp.LitString:
			return x.S, true
		case xqp.LitInt:
			return xqt.Int(x.I).AsString(), true
		case xqp.LitDouble:
			return xqt.Double(x.F).AsString(), true
		}
	case *xqp.Seq:
		if len(x.Items) == 1 {
			return constString(x.Items[0])
		}
	case *xqp.Call:
		switch x.Name {
		case "string":
			if len(x.Args) == 1 {
				return constString(x.Args[0])
			}
		case "concat":
			if len(x.Args) < 2 {
				return "", false
			}
			var out string
			for _, a := range x.Args {
				s, ok := constString(a)
				if !ok {
					return "", false
				}
				out += s
			}
			return out, true
		}
	}
	return "", false
}

func (c *Compiler) compileArg(x *xqp.Call, i int, sc *scope) (ralg.Plan, error) {
	if i >= len(x.Args) {
		return nil, xqerr.Newf("XPST0017", "%s expects more than %d arguments", x.Name, len(x.Args))
	}
	return c.compile(x.Args[i], sc)
}

// inlineUDF expands a user-defined function call by binding the argument
// plans as variables and compiling the body in the caller's loop.
// Recursive functions cannot be inlined and are rejected (the naive
// interpreter evaluates them; the relational compiler matches
// MonetDB/XQuery's documented support only for non-recursive inlining in
// this reproduction).
func (c *Compiler) inlineUDF(f *xqp.FuncDecl, x *xqp.Call, sc *scope) (ralg.Plan, error) {
	if len(x.Args) != len(f.Params) {
		return nil, xqerr.Newf("XPST0017", "%s expects %d arguments", f.Name, len(f.Params))
	}
	if c.inlining[f.Name] {
		return nil, fmt.Errorf("xqc: recursive user-defined function %s cannot be compiled relationally", f.Name)
	}
	body := sc.clone()
	body.vars = make(map[string]*binding, len(f.Params))
	for i, p := range f.Params {
		q, err := c.compile(x.Args[i], sc)
		if err != nil {
			return nil, err
		}
		body.vars[p] = &binding{plan: q, deps: c.depsOf(x.Args[i], sc)}
	}
	c.inlining[f.Name] = true
	defer delete(c.inlining, f.Name)
	return c.compile(f.Body, body)
}

// compileAggr compiles the grouped aggregates. count and sum densify
// empty iterations with 0; avg/min/max leave them empty. count takes the
// argument's count plan where it has one.
func (c *Compiler) compileAggr(x *xqp.Call, sc *scope) (ralg.Plan, error) {
	if len(x.Args) == 0 {
		return c.compileArg(x, 0, sc)
	}
	q, counted, err := c.compileCounted(x.Args[0], sc, x.Name == "count")
	if err != nil {
		return nil, err
	}
	op := map[string]ralg.AggOp{
		"count": ralg.AggCount, "sum": ralg.AggSum, "avg": ralg.AggAvg,
		"min": ralg.AggMin, "max": ralg.AggMax,
	}[x.Name]
	arg := "item"
	if op != ralg.AggCount {
		at := ralg.NewFun(q, ralg.FunAtomize, "av", "item")
		q = at
		arg = "av"
	}
	full := counted
	if op != ralg.AggCount || counted == nil {
		a := &ralg.Aggr{Part: "iter", Op: op, Arg: arg, Out: "item"}
		a.SetInput(0, q)
		full = a
	}
	if x.Name == "count" || x.Name == "sum" {
		zero := ralg.AttachItem(complement(sc.loop, full), "item", xqt.Int(0))
		u := &ralg.Union{Ins: []ralg.Plan{ralg.NewProject(full, "iter", "item"), ralg.NewProject(zero, "iter", "item")}}
		full = ralg.NewSort(u, "iter")
	}
	res := ralg.AttachInt(full, "pos", 1)
	return ralg.NewProject(res, "iter", "pos", "item"), nil
}

// compileUnaryFn compiles per-iteration scalar functions of one argument.
func (c *Compiler) compileUnaryFn(x *xqp.Call, sc *scope) (ralg.Plan, error) {
	q, err := c.compileArg(x, 0, sc)
	if err != nil {
		return nil, err
	}
	switch x.Name {
	case "data":
		at := ralg.NewFun(q, ralg.FunAtomize, "av", "item")
		return ralg.NewProject(at, "iter", "pos", "av->item"), nil
	case "string", "number", "name", "local-name", "floor", "ceiling", "round", "string-length":
		fn := map[string]ralg.FunOp{
			"string": ralg.FunStringOf, "number": ralg.FunNumber,
			"name": ralg.FunNameOf, "local-name": ralg.FunLocalName,
			"floor": ralg.FunFloor, "ceiling": ralg.FunCeil,
			"round": ralg.FunRound, "string-length": ralg.FunStrLen,
		}[x.Name]
		f := ralg.NewFun(cardCheck(q, x.Name, "XPTY0004"), fn, "fv", "item")
		part := ralg.NewProject(f, "iter", "pos", "fv->item")
		// string(), name() and string-length() of the empty sequence
		// yield "" / 0 rather than the empty sequence
		var def xqt.Item
		switch x.Name {
		case "string", "name", "local-name":
			def = xqt.Str("")
		case "string-length":
			def = xqt.Int(0)
		case "number":
			def = xqt.Double(nan())
		default:
			return part, nil
		}
		filled := ralg.AttachItem(ralg.AttachInt(complement(sc.loop, part), "pos", 1), "item", def)
		u := &ralg.Union{Ins: []ralg.Plan{part, ralg.NewProject(filled, "iter", "pos", "item")}}
		return ralg.NewSort(u, "iter", "pos"), nil
	}
	return nil, fmt.Errorf("xqc: unhandled unary function %s", x.Name)
}

// compileStringCmp compiles contains/starts-with: both arguments are
// stringified with "" defaults, compared per iteration.
func (c *Compiler) compileStringCmp(x *xqp.Call, sc *scope) (ralg.Plan, error) {
	qa, err := c.stringified(x, 0, sc)
	if err != nil {
		return nil, err
	}
	qb, err := c.stringified(x, 1, sc)
	if err != nil {
		return nil, err
	}
	j := ralg.NewHashJoin(qa, qb, "iter", "iter",
		ralg.Refs("iter", "pos", "item->a"), ralg.Refs("item->b"))
	fn := ralg.FunContains
	if x.Name == "starts-with" {
		fn = ralg.FunStartsWith
	}
	f := ralg.NewFun(j, fn, "val", "a", "b")
	return boolItems(ralg.NewProject(f, "iter", "val->item")), nil
}

func (c *Compiler) compileConcat(x *xqp.Call, sc *scope) (ralg.Plan, error) {
	if len(x.Args) < 2 {
		return nil, xqerr.Newf("XPST0017", "concat expects at least 2 arguments")
	}
	acc, err := c.stringified(x, 0, sc)
	if err != nil {
		return nil, err
	}
	for i := 1; i < len(x.Args); i++ {
		qn, err := c.stringified(x, i, sc)
		if err != nil {
			return nil, err
		}
		j := ralg.NewHashJoin(acc, qn, "iter", "iter",
			ralg.Refs("iter", "pos", "item->a"), ralg.Refs("item->b"))
		f := ralg.NewFun(j, ralg.FunConcat, "cv", "a", "b")
		acc = ralg.NewProject(f, "iter", "pos", "cv->item")
	}
	return acc, nil
}

// stringified compiles an argument to a dense (one row per iteration)
// string singleton: the item stringified (two or more are XPTY0004),
// empty iterations become "".
func (c *Compiler) stringified(x *xqp.Call, i int, sc *scope) (ralg.Plan, error) {
	q, err := c.compileArg(x, i, sc)
	if err != nil {
		return nil, err
	}
	f := ralg.NewFun(cardCheck(q, x.Name, "XPTY0004"), ralg.FunStringOf, "sv", "item")
	part := ralg.NewProject(f, "iter", "pos", "sv->item")
	filled := ralg.AttachItem(ralg.AttachInt(complement(sc.loop, part), "pos", 1), "item", xqt.Str(""))
	u := &ralg.Union{Ins: []ralg.Plan{part, ralg.NewProject(filled, "iter", "pos", "item")}}
	return ralg.NewSort(u, "iter"), nil
}

func (c *Compiler) compileCardinality(x *xqp.Call, sc *scope) (ralg.Plan, error) {
	q, err := c.compileArg(x, 0, sc)
	if err != nil {
		return nil, err
	}
	switch x.Name {
	case "zero-or-one":
		return cardCheck(q, "fn:zero-or-one", "FORG0003"), nil
	case "exactly-one":
		cv := &ralg.CoverCheck{LoopIter: "iter", Part: "iter", Fn: "fn:exactly-one", Code: "FORG0005"}
		cv.SetInput(0, sc.loop)
		cv.SetInput(1, cardCheck(q, "fn:exactly-one", "FORG0005"))
		return cv, nil
	default: // one-or-more
		cv := &ralg.CoverCheck{LoopIter: "iter", Part: "iter", Fn: "fn:one-or-more", Code: "FORG0004"}
		cv.SetInput(0, sc.loop)
		cv.SetInput(1, q)
		return cv, nil
	}
}

// compileCtor compiles a nest of direct constructors into one
// ElemConstruct: a constructor directly in another's content opens no
// iteration scope and its node identity cannot be observed, so it is
// built in place, not built and copied.
func (c *Compiler) compileCtor(x *xqp.ElemCtor, sc *scope) (ralg.Plan, error) {
	ec := &ralg.ElemConstruct{Ins: []ralg.Plan{ralg.NewProject(sc.loop, "iter")}}
	if err := c.ctorTemplate(ec, x, sc); err != nil {
		return nil, err
	}
	return ralg.NewProject(ralg.AttachInt(ec, "pos", 1), "iter", "pos", "item"), nil
}

// ctorTemplate appends x's tokens and inputs to ec; every content item
// but a nested direct constructor is a part of its own.
func (c *Compiler) ctorTemplate(ec *ralg.ElemConstruct, x *xqp.ElemCtor, sc *scope) error {
	start := ralg.CtorTok{Kind: ralg.TokStart, Tag: x.Name}
	for _, a := range x.Attrs {
		for _, part := range a.Parts {
			if err := c.ctorPart(ec, part, sc); err != nil {
				return err
			}
		}
		start.Attrs = append(start.Attrs, ralg.AttrSpec{Attr: a.Name, Parts: len(a.Parts)})
	}
	ec.Template = append(ec.Template, start)
	for _, item := range x.Content {
		var err error
		if nested, ok := item.(*xqp.ElemCtor); ok {
			err = c.ctorTemplate(ec, nested, sc)
		} else {
			ec.Template = append(ec.Template, ralg.CtorTok{Kind: ralg.TokPart})
			err = c.ctorPart(ec, item, sc)
		}
		if err != nil {
			return err
		}
	}
	ec.Template = append(ec.Template, ralg.CtorTok{Kind: ralg.TokEnd})
	return nil
}

// ctorPart compiles x as ec's next input.
func (c *Compiler) ctorPart(ec *ralg.ElemConstruct, x xqp.Expr, sc *scope) error {
	q, err := c.compile(x, sc)
	ec.Ins = append(ec.Ins, q)
	return err
}

func nan() float64 {
	var z float64
	return 0 / z
}
