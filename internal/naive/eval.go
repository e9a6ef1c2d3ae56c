package naive

import (
	"fmt"
	"io"
	"math"
	"slices"
	"sort"
	"strings"

	"mxq/internal/store"
	"mxq/internal/xqerr"
	"mxq/internal/xqp"
	"mxq/internal/xqt"
)

// Interp is a naive XQuery interpreter instance holding loaded documents.
type Interp struct {
	docs        map[string]*Node
	collections map[string][]*Node
	defaultDoc  string
	ord         int64
	funcs       map[string]*xqp.FuncDecl
	prolog      map[string][]Val // prolog variables of the current query
	depth       int
}

// New returns an empty interpreter.
func New() *Interp {
	return &Interp{
		docs:        make(map[string]*Node),
		collections: make(map[string][]*Node),
	}
}

// LoadXML parses and registers a document. The first loaded document
// becomes the context document for absolute paths.
func (in *Interp) LoadXML(name string, r io.Reader) error {
	c, err := store.Shred(name, r, false)
	if err != nil {
		return err
	}
	in.LoadContainer(name, c)
	return nil
}

// LoadContainer registers a pre-shredded document.
func (in *Interp) LoadContainer(name string, c *store.Container) {
	root := FromContainer(c, &in.ord)
	in.docs[name] = root
	if in.defaultDoc == "" {
		in.defaultDoc = name
	}
}

// LoadDOM registers an already built DOM tree (its ords must come from
// this interpreter's counter).
func (in *Interp) LoadDOM(name string, root *Node) {
	in.docs[name] = root
	if in.defaultDoc == "" {
		in.defaultDoc = name
	}
}

// OrdCounter exposes the document-order counter for external builders.
func (in *Interp) OrdCounter() *int64 { return &in.ord }

// AddCollectionDOM appends an already built document root to the named
// collection (creating it if needed). collection() enumerates documents
// in insertion order, so callers mirroring a relational ShardedPool must
// insert in that pool's DocNames() order. Collection documents are not
// addressable via doc(), matching the relational engine.
func (in *Interp) AddCollectionDOM(coll string, root *Node) {
	in.collections[coll] = append(in.collections[coll], root)
}

// AddCollectionXML parses a document and appends it to the named
// collection.
func (in *Interp) AddCollectionXML(coll, docName string, r io.Reader) error {
	c, err := store.Shred(docName, r, false)
	if err != nil {
		return err
	}
	in.AddCollectionDOM(coll, FromContainer(c, &in.ord))
	return nil
}

// Query parses and evaluates a query, returning the result sequence.
func (in *Interp) Query(q string) ([]Val, error) {
	return in.QueryBound(q, nil)
}

// QueryBound parses and evaluates a query under the given external
// variable bindings, mirroring the relational engine's prepared-query
// semantics exactly: prolog declarations are processed in order (a
// declaration sees only the declarations before it); non-external
// variables evaluate their init expressions; external variables take
// their binding, fall back to their default expression, or raise
// XPDY0002 when required and unbound. Binding an undeclared name is
// XPST0008; binding more than one item where the declaration's default
// is statically a single item is XPTY0004.
func (in *Interp) QueryBound(q string, binds map[string][]Val) ([]Val, error) {
	m, err := xqp.Parse(q)
	if err != nil {
		return nil, err
	}
	in.funcs = make(map[string]*xqp.FuncDecl)
	for _, f := range m.Funcs {
		in.funcs[f.Name] = f
	}
	for name := range binds {
		declared := false
		for _, d := range m.Vars {
			if d.External && d.Name == name {
				declared = true
				break
			}
		}
		if !declared {
			return nil, xqerr.Newf("XPST0008", "no external variable $%s declared", name)
		}
	}
	env := &scope{vars: make(map[string][]Val)}
	// prolog variables are visible inside user-defined function bodies
	// too (evalCall seeds function scopes from this map, which grows in
	// declaration order so a default's UDF call sees only earlier
	// declarations — matching the relational compiler's declLimit)
	in.prolog = env.vars
	for _, d := range m.Vars {
		if d.External {
			if vals, ok := binds[d.Name]; ok {
				if d.Init != nil && xqp.StaticSingleton(d.Init) && len(vals) > 1 {
					return nil, xqerr.Newf("XPTY0004", "external variable $%s expects a single item (its default is one) but is bound to %d items", d.Name, len(vals))
				}
				env.vars[d.Name] = vals
				continue
			}
			if d.Init == nil {
				return nil, xqerr.Newf("XPDY0002", "no value bound for external variable $%s", d.Name)
			}
		}
		v, err := in.eval(d.Init, env)
		if err != nil {
			return nil, err
		}
		env.vars[d.Name] = v
	}
	return in.eval(m.Body, env)
}

// QueryString evaluates the query and serializes its result.
func (in *Interp) QueryString(q string) (string, error) {
	return in.QueryStringBound(q, nil)
}

// QueryStringBound evaluates the query under bindings and serializes
// its result.
func (in *Interp) QueryStringBound(q string, binds map[string][]Val) (string, error) {
	seq, err := in.QueryBound(q, binds)
	if err != nil {
		return "", err
	}
	var sb strings.Builder
	if err := SerializeSeq(&sb, seq); err != nil {
		return "", err
	}
	return sb.String(), nil
}

type scope struct {
	vars    map[string][]Val
	ctxItem *Val
	ctxPos  int
	ctxSize int
}

func (e *scope) child() *scope {
	vars := make(map[string][]Val, len(e.vars)+1)
	for k, v := range e.vars {
		vars[k] = v
	}
	return &scope{vars: vars, ctxItem: e.ctxItem, ctxPos: e.ctxPos, ctxSize: e.ctxSize}
}

func atomVal(it xqt.Item) Val { return Val{Atom: it} }

func (in *Interp) eval(e xqp.Expr, env *scope) ([]Val, error) {
	switch x := e.(type) {
	case *xqp.Literal:
		switch x.Kind {
		case xqp.LitInt:
			return []Val{atomVal(xqt.Int(x.I))}, nil
		case xqp.LitDouble:
			return []Val{atomVal(xqt.Double(x.F))}, nil
		default:
			return []Val{atomVal(xqt.Str(x.S))}, nil
		}
	case *xqp.VarRef:
		v, ok := env.vars[x.Name]
		if !ok {
			return nil, xqerr.Newf("XPST0008", "undeclared variable $%s", x.Name)
		}
		return v, nil
	case *xqp.ContextItem:
		if env.ctxItem == nil {
			return nil, xqerr.Newf("XPDY0002", "no context item")
		}
		return []Val{*env.ctxItem}, nil
	case *xqp.EmptySeq:
		return nil, nil
	case *xqp.Seq:
		var out []Val
		for _, item := range x.Items {
			v, err := in.eval(item, env)
			if err != nil {
				return nil, err
			}
			out = append(out, v...)
		}
		return out, nil
	case *xqp.If:
		c, err := in.evalEBV(x.Cond, env)
		if err != nil {
			return nil, err
		}
		if c {
			return in.eval(x.Then, env)
		}
		return in.eval(x.Else, env)
	case *xqp.FLWOR:
		return in.evalFLWOR(x, env)
	case *xqp.Quantified:
		return in.evalQuantified(x, env)
	case *xqp.Binary:
		return in.evalBinary(x, env)
	case *xqp.Unary:
		v, err := in.eval(x.X, env)
		if err != nil {
			return nil, err
		}
		if len(v) == 0 {
			return nil, nil
		}
		a := v[0].Atomize()
		if a.K == xqt.KInt {
			return []Val{atomVal(xqt.Int(-a.I))}, nil
		}
		return []Val{atomVal(xqt.Double(-a.AsDouble()))}, nil
	case *xqp.Path:
		return in.evalPath(x, env)
	case *xqp.Call:
		return in.evalCall(x, env)
	case *xqp.ElemCtor:
		return in.evalCtor(x, env)
	}
	return nil, fmt.Errorf("naive: unhandled expression %T", e)
}

func (in *Interp) evalEBV(e xqp.Expr, env *scope) (bool, error) {
	v, err := in.eval(e, env)
	if err != nil {
		return false, err
	}
	return ebv(v)
}

func ebv(seq []Val) (bool, error) {
	if len(seq) == 0 {
		return false, nil
	}
	if seq[0].IsNode() {
		return true, nil
	}
	if len(seq) > 1 {
		return false, xqerr.Newf("FORG0006", "effective boolean value of a sequence of %d atomic values", len(seq))
	}
	it := seq[0].Atom
	switch it.K {
	case xqt.KBool, xqt.KInt:
		return it.I != 0, nil
	case xqt.KDouble:
		return it.F != 0 && !math.IsNaN(it.F), nil
	default:
		return it.S != "", nil
	}
}

func (in *Interp) evalFLWOR(f *xqp.FLWOR, env *scope) ([]Val, error) {
	// split off the (final) order-by clause if present
	clauses := f.Clauses
	var order *xqp.Clause
	if n := len(clauses); n > 0 && clauses[n-1].Kind == xqp.ClauseOrder {
		order = &clauses[n-1]
		clauses = clauses[:n-1]
	}
	var tuples []*scope
	var enumerate func(i int, cur *scope) error
	enumerate = func(i int, cur *scope) error {
		if i == len(clauses) {
			tuples = append(tuples, cur)
			return nil
		}
		c := clauses[i]
		switch c.Kind {
		case xqp.ClauseFor:
			seq, err := in.eval(c.Expr, cur)
			if err != nil {
				return err
			}
			for idx, v := range seq {
				next := cur.child()
				next.vars[c.Var] = []Val{v}
				if c.Pos != "" {
					next.vars[c.Pos] = []Val{atomVal(xqt.Int(int64(idx + 1)))}
				}
				if err := enumerate(i+1, next); err != nil {
					return err
				}
			}
			return nil
		case xqp.ClauseLet:
			seq, err := in.eval(c.Expr, cur)
			if err != nil {
				return err
			}
			next := cur.child()
			next.vars[c.Var] = seq
			return enumerate(i+1, next)
		case xqp.ClauseWhere:
			ok, err := in.evalEBV(c.Expr, cur)
			if err != nil {
				return err
			}
			if !ok {
				return nil
			}
			return enumerate(i+1, cur)
		case xqp.ClauseOrder:
			return fmt.Errorf("naive: order by must be the last clause")
		}
		return nil
	}
	if err := enumerate(0, env.child()); err != nil {
		return nil, err
	}
	if order != nil {
		type keyed struct {
			env  *scope
			keys []xqt.Item
		}
		ks := make([]keyed, len(tuples))
		for i, tp := range tuples {
			ks[i] = keyed{env: tp}
			for _, k := range order.Keys {
				v, err := in.eval(k.Expr, tp)
				if err != nil {
					return nil, err
				}
				switch len(v) {
				case 0:
					ks[i].keys = append(ks[i].keys, xqt.EmptyLeast)
				case 1:
					ks[i].keys = append(ks[i].keys, v[0].Atomize())
				default:
					return nil, xqerr.Newf("XPTY0004", "order key is a sequence of %d items", len(v))
				}
			}
		}
		sort.SliceStable(ks, func(a, b int) bool {
			for ki, key := range order.Keys {
				x, y := ks[a].keys[ki], ks[b].keys[ki]
				if xqt.SortLess(x, y) {
					return !key.Desc
				}
				if xqt.SortLess(y, x) {
					return key.Desc
				}
			}
			return false
		})
		for i := range ks {
			tuples[i] = ks[i].env
		}
	}
	var out []Val
	for _, tp := range tuples {
		v, err := in.eval(f.Return, tp)
		if err != nil {
			return nil, err
		}
		out = append(out, v...)
	}
	return out, nil
}

func (in *Interp) evalQuantified(q *xqp.Quantified, env *scope) ([]Val, error) {
	var enumerate func(i int, cur *scope) (bool, error)
	enumerate = func(i int, cur *scope) (bool, error) {
		if i == len(q.Vars) {
			return in.evalEBV(q.Satisfies, cur)
		}
		seq, err := in.eval(q.Seqs[i], cur)
		if err != nil {
			return false, err
		}
		for _, v := range seq {
			next := cur.child()
			next.vars[q.Vars[i]] = []Val{v}
			ok, err := enumerate(i+1, next)
			if err != nil {
				return false, err
			}
			if ok != q.Every {
				return ok, nil // found witness (some) or counterexample (every)
			}
		}
		return q.Every, nil
	}
	r, err := enumerate(0, env.child())
	if err != nil {
		return nil, err
	}
	return []Val{atomVal(xqt.Bool(r))}, nil
}

func (in *Interp) evalBinary(b *xqp.Binary, env *scope) ([]Val, error) {
	switch b.Op {
	case xqp.OpOr, xqp.OpAnd:
		l, err := in.evalEBV(b.L, env)
		if err != nil {
			return nil, err
		}
		if b.Op == xqp.OpOr && l {
			return []Val{atomVal(xqt.Bool(true))}, nil
		}
		if b.Op == xqp.OpAnd && !l {
			return []Val{atomVal(xqt.Bool(false))}, nil
		}
		r, err := in.evalEBV(b.R, env)
		if err != nil {
			return nil, err
		}
		return []Val{atomVal(xqt.Bool(r))}, nil
	}
	l, err := in.eval(b.L, env)
	if err != nil {
		return nil, err
	}
	r, err := in.eval(b.R, env)
	if err != nil {
		return nil, err
	}
	switch b.Op {
	case xqp.OpGenEq, xqp.OpGenNe, xqp.OpGenLt, xqp.OpGenLe, xqp.OpGenGt, xqp.OpGenGe:
		op := map[xqp.BinOp]xqt.CmpOp{
			xqp.OpGenEq: xqt.CmpEq, xqp.OpGenNe: xqt.CmpNe, xqp.OpGenLt: xqt.CmpLt,
			xqp.OpGenLe: xqt.CmpLe, xqp.OpGenGt: xqt.CmpGt, xqp.OpGenGe: xqt.CmpGe,
		}[b.Op]
		for _, lv := range l {
			for _, rv := range r {
				if xqt.Compare(lv.Atomize(), rv.Atomize(), op) {
					return []Val{atomVal(xqt.Bool(true))}, nil
				}
			}
		}
		return []Val{atomVal(xqt.Bool(false))}, nil
	case xqp.OpValEq, xqp.OpValNe, xqp.OpValLt, xqp.OpValLe, xqp.OpValGt, xqp.OpValGe:
		if len(l) == 0 || len(r) == 0 {
			return nil, nil
		}
		if len(l) > 1 || len(r) > 1 {
			return nil, xqerr.Newf("XPTY0004", "value comparison over sequences")
		}
		op := map[xqp.BinOp]xqt.CmpOp{
			xqp.OpValEq: xqt.CmpEq, xqp.OpValNe: xqt.CmpNe, xqp.OpValLt: xqt.CmpLt,
			xqp.OpValLe: xqt.CmpLe, xqp.OpValGt: xqt.CmpGt, xqp.OpValGe: xqt.CmpGe,
		}[b.Op]
		return []Val{atomVal(xqt.Bool(xqt.Compare(l[0].Atomize(), r[0].Atomize(), op)))}, nil
	case xqp.OpIs, xqp.OpBefore, xqp.OpAfter:
		if len(l) == 0 || len(r) == 0 {
			return nil, nil
		}
		if len(l) > 1 || len(r) > 1 || !l[0].IsNode() || !r[0].IsNode() {
			return nil, xqerr.Newf("XPTY0004", "node comparison over non-singleton-node operands")
		}
		var res bool
		switch b.Op {
		case xqp.OpIs:
			res = l[0].Node == r[0].Node && l[0].Owner == r[0].Owner && l[0].AIdx == r[0].AIdx
		case xqp.OpBefore:
			res = docOrderLess(l[0], r[0])
		default:
			res = docOrderLess(r[0], l[0])
		}
		return []Val{atomVal(xqt.Bool(res))}, nil
	case xqp.OpAdd, xqp.OpSub, xqp.OpMul, xqp.OpDiv, xqp.OpIDiv, xqp.OpMod:
		if len(l) == 0 || len(r) == 0 {
			return nil, nil
		}
		v, err := arith(b.Op, l[0].Atomize(), r[0].Atomize())
		if err != nil {
			return nil, err
		}
		return []Val{atomVal(v)}, nil
	case xqp.OpRange:
		if len(l) == 0 || len(r) == 0 {
			return nil, nil
		}
		lo := l[0].Atomize()
		hi := r[0].Atomize()
		var out []Val
		for v := lo.I; v <= hi.I; v++ {
			out = append(out, atomVal(xqt.Int(v)))
		}
		return out, nil
	case xqp.OpUnion:
		all := append(append([]Val{}, l...), r...)
		for _, v := range all {
			if !v.IsNode() {
				return nil, xqerr.Newf("XPTY0004", "union over non-nodes")
			}
		}
		return sortAndDedup(all), nil
	}
	return nil, fmt.Errorf("naive: unhandled binary op %v", b.Op)
}

// arith implements XQuery arithmetic with numeric promotion: integer
// operands stay integral (except div), everything else is xs:double.
// idiv and integer mod raise FOAR0001 on a zero divisor, and idiv
// raises FOAR0002 when the quotient is no xs:integer (F&O 6.2.5-6.2.6).
func arith(op xqp.BinOp, a, b xqt.Item) (xqt.Item, error) {
	if a.K == xqt.KInt && b.K == xqt.KInt && op != xqp.OpDiv {
		x, y := a.I, b.I
		if y == 0 && (op == xqp.OpIDiv || op == xqp.OpMod) {
			return xqt.Item{}, xqerr.Newf("FOAR0001", "division by zero")
		}
		switch op {
		case xqp.OpAdd:
			return xqt.Int(x + y), nil
		case xqp.OpSub:
			return xqt.Int(x - y), nil
		case xqp.OpMul:
			return xqt.Int(x * y), nil
		case xqp.OpIDiv:
			return xqt.Int(x / y), nil
		case xqp.OpMod:
			return xqt.Int(x % y), nil
		}
	}
	x, y := a.AsDouble(), b.AsDouble()
	switch op {
	case xqp.OpAdd:
		return xqt.Double(x + y), nil
	case xqp.OpSub:
		return xqt.Double(x - y), nil
	case xqp.OpMul:
		return xqt.Double(x * y), nil
	case xqp.OpDiv:
		return xqt.Double(x / y), nil
	case xqp.OpIDiv:
		if y == 0 {
			return xqt.Item{}, xqerr.Newf("FOAR0001", "division by zero")
		}
		if math.IsNaN(x) || math.IsNaN(y) || math.IsInf(x, 0) || math.Abs(x/y) >= 1<<63 {
			return xqt.Item{}, xqerr.Newf("FOAR0002", "idiv: %s idiv %s is not an xs:integer", xqt.FormatDouble(x), xqt.FormatDouble(y))
		}
		return xqt.Int(int64(x / y)), nil
	case xqp.OpMod:
		return xqt.Double(math.Mod(x, y)), nil
	}
	return xqt.Double(math.NaN()), nil
}

func (in *Interp) evalPath(p *xqp.Path, env *scope) ([]Val, error) {
	var cur []Val
	start := 0
	if p.Absolute {
		root, ok := in.docs[in.defaultDoc]
		if !ok {
			return nil, fmt.Errorf("naive: no context document")
		}
		cur = []Val{{Node: root}}
		if len(p.Steps) == 0 {
			return cur, nil
		}
	} else {
		s := p.Steps[0]
		start = 1
		if s.Expr != nil {
			v, err := in.eval(s.Expr, env)
			if err != nil {
				return nil, err
			}
			v, err = in.applyPreds(v, s.Preds, false, env)
			if err != nil {
				return nil, err
			}
			cur = v
		} else {
			if env.ctxItem == nil {
				return nil, xqerr.Newf("XPDY0002", "relative path with no context item")
			}
			v, err := in.axisStep([]Val{*env.ctxItem}, s, env)
			if err != nil {
				return nil, err
			}
			cur = v
		}
	}
	for _, s := range p.Steps[start:] {
		v, err := in.axisStep(cur, s, env)
		if err != nil {
			return nil, err
		}
		cur = v
	}
	return cur, nil
}

// axisStep applies one axis step (with predicates) to every context node
// and returns the combined, deduplicated, document-ordered result.
func (in *Interp) axisStep(ctx []Val, s xqp.Step, env *scope) ([]Val, error) {
	if s.Expr != nil {
		return nil, fmt.Errorf("naive: primary expression in non-initial step")
	}
	var out []Val
	for _, c := range ctx {
		if !c.IsNode() {
			return nil, xqerr.Newf("XPTY0019", "path step applied to an atomic value")
		}
		res := stepFrom(c, s.Axis, s.Test)
		res, err := in.applyPreds(res, s.Preds, s.Axis.Reverse(), env)
		if err != nil {
			return nil, err
		}
		out = append(out, res...)
	}
	return sortAndDedup(out), nil
}

func (in *Interp) applyPreds(seq []Val, preds []xqp.Expr, reverse bool, env *scope) ([]Val, error) {
	for _, pred := range preds {
		positional := xqp.PredIsPositional(pred)
		var kept []Val
		for i, v := range seq {
			pos := i + 1
			if reverse {
				pos = len(seq) - i
			}
			pe := env.child()
			vv := v
			pe.ctxItem = &vv
			pe.ctxPos = pos
			pe.ctxSize = len(seq)
			if positional {
				pv, err := in.eval(pred, pe)
				if err != nil {
					return nil, err
				}
				if len(pv) == 1 && pv[0].Atomize().AsDouble() == float64(pos) {
					kept = append(kept, v)
				}
				continue
			}
			ok, err := in.evalEBV(pred, pe)
			if err != nil {
				return nil, err
			}
			if ok {
				kept = append(kept, v)
			}
		}
		seq = kept
	}
	return seq, nil
}

// stepFrom evaluates one axis step from a single context node, in
// document order whatever the axis.
func stepFrom(c Val, axis xqp.Axis, test xqp.NodeTest) []Val {
	if c.Owner != nil {
		// attribute context: the attribute sits right after its owner
		// element, which answers for it on parent, ancestor, following
		// and preceding; the attribute itself is its own self and, under
		// node(), its own ancestor-or-self and descendant-or-self
		owner := Val{Node: c.Owner}
		var out []Val
		if test.Kind == xqp.TestAnyNode && (axis == xqp.AxisSelf || axis == xqp.AxisAncestorOrSelf || axis == xqp.AxisDescendantOrSelf) {
			out = []Val{c}
		}
		switch axis {
		case xqp.AxisParent:
			return stepFrom(owner, xqp.AxisSelf, test)
		case xqp.AxisAncestor, xqp.AxisAncestorOrSelf:
			return append(stepFrom(owner, xqp.AxisAncestorOrSelf, test), out...)
		case xqp.AxisFollowing:
			return append(stepFrom(owner, xqp.AxisDescendant, test), stepFrom(owner, xqp.AxisFollowing, test)...)
		case xqp.AxisPreceding:
			return stepFrom(owner, xqp.AxisPreceding, test)
		}
		return out
	}
	n := c.Node
	var out []Val
	add := func(m *Node) {
		if matchTest(m, test) {
			out = append(out, Val{Node: m})
		}
	}
	var walk func(*Node)
	walk = func(m *Node) {
		add(m)
		for _, ch := range m.Children {
			walk(ch)
		}
	}
	switch axis {
	case xqp.AxisChild:
		for _, ch := range n.Children {
			add(ch)
		}
	case xqp.AxisDescendant:
		for _, ch := range n.Children {
			walk(ch)
		}
	case xqp.AxisDescendantOrSelf:
		walk(n)
	case xqp.AxisSelf:
		add(n)
	case xqp.AxisParent:
		if n.Parent != nil {
			add(n.Parent)
		}
	case xqp.AxisAncestor, xqp.AxisAncestorOrSelf:
		a := n
		if axis == xqp.AxisAncestor {
			a = n.Parent
		}
		for ; a != nil; a = a.Parent {
			add(a)
		}
		slices.Reverse(out)
	case xqp.AxisFollowingSibling:
		if n.Parent != nil {
			for _, sib := range n.Parent.Children {
				if sib.Ord > n.Ord {
					add(sib)
				}
			}
		}
	case xqp.AxisPrecedingSibling:
		if n.Parent != nil {
			for _, sib := range n.Parent.Children {
				if sib.Ord < n.Ord {
					add(sib)
				}
			}
		}
	case xqp.AxisFollowing:
		root := n
		for root.Parent != nil {
			root = root.Parent
		}
		end := maxOrd(n)
		var ff func(*Node)
		ff = func(m *Node) {
			if m.Ord > end {
				add(m)
			}
			for _, ch := range m.Children {
				ff(ch)
			}
		}
		ff(root)
	case xqp.AxisPreceding:
		root := n
		for root.Parent != nil {
			root = root.Parent
		}
		anc := map[*Node]bool{}
		for a := n; a != nil; a = a.Parent {
			anc[a] = true
		}
		var pf func(*Node)
		pf = func(m *Node) {
			if m.Ord < n.Ord && !anc[m] {
				add(m)
			}
			for _, ch := range m.Children {
				pf(ch)
			}
		}
		pf(root)
	case xqp.AxisAttribute:
		if n.Kind == store.KindElem {
			for i, a := range n.Attrs {
				if test.Kind == xqp.TestName && (test.Name == "" || test.Name == a.Name) {
					out = append(out, Val{Owner: n, AIdx: i})
				}
			}
		}
	}
	return out
}

func maxOrd(n *Node) int64 {
	m := n.Ord
	for _, ch := range n.Children {
		if v := maxOrd(ch); v > m {
			m = v
		}
	}
	return m
}

func matchTest(n *Node, t xqp.NodeTest) bool {
	switch t.Kind {
	case xqp.TestAnyNode:
		return true
	case xqp.TestName:
		return n.Kind == store.KindElem && (t.Name == "" || n.Name == t.Name)
	case xqp.TestText:
		return n.Kind == store.KindText
	case xqp.TestComment:
		return n.Kind == store.KindComment
	case xqp.TestPI:
		return n.Kind == store.KindPI
	case xqp.TestDocNode:
		return n.Kind == store.KindDoc
	}
	return false
}
