// Package planck is the static plan verifier: it walks a compiled ralg
// plan DAG inputs-first, infers every operator's output schema (column
// names, column kinds, node-ness and — where statically known — the
// uniform item tag) plus a conservative set of the §4.1 column
// properties (pos-density, key-ness, constness), and checks each
// operator's preconditions against its inferred inputs. A malformed
// plan — a Select over a missing or non-boolean column, a Step whose
// input is not provably in (item, iter) order, a positional join
// without a dense key, a rank operator whose streaming mode its input
// order cannot justify — is rejected at compile time with a structured
// *PlanInvariantError naming the offending operator, instead of
// surfacing as a contained executor panic or, worse, wrong bytes.
//
// planck's own property inference is deliberately independent of the
// optimizer's: internal/opt's inferred properties are cross-checked
// against planck's maximal sound propagation rules, so an optimizer
// claim planck cannot reproduce (dense surviving a reorder, a key
// conjured out of thin air) is itself reported as a plan invariant
// violation — inference disagreement means one of the two is wrong.
//
// The verifier checks structural invariants the compiler guarantees by
// construction; it never rejects on runtime value semantics (e.g. a
// path step over a statically atom-tagged column still compiles — the
// spec prescribes a dynamic error there, and the executor raises it).
package planck

import (
	"fmt"

	"mxq/internal/opt"
	"mxq/internal/ralg"
	"mxq/internal/xqt"
)

// PlanInvariantError is a statically detected plan invariant violation.
type PlanInvariantError struct {
	// Op is the Name() of the offending operator.
	Op string
	// Msg describes the violated invariant.
	Msg string
}

// Error implements error.
func (e *PlanInvariantError) Error() string {
	return fmt.Sprintf("planck: plan invariant violated at %s: %s", e.Op, e.Msg)
}

// Config parameterizes one verification run.
type Config struct {
	// Params holds the prolog variable names visible to param($x)
	// leaves. A nil map disables the declared-parameter check (the
	// caller does not know the declarations); an empty non-nil map
	// means "no parameters declared", so any ParamTable leaf is a
	// violation.
	Params map[string]bool
	// RequireItem demands that the root plan produce an "item" column
	// of item kind — the contract of every result-producing plan (the
	// engine reads the result sequence off that column).
	RequireItem bool
}

// ColInfo is the statically inferred shape of one output column.
type ColInfo struct {
	Kind ralg.ColKind
	// Node marks an item column statically known to hold only nodes.
	Node bool
	// Tag is the uniform item tag when TagKnown (e.g. every Step output
	// is node-tagged, every fn:string result is string-tagged).
	Tag      xqt.Kind
	TagKnown bool
}

// Schema is the inferred output schema of one operator.
type Schema struct {
	// Any marks an unknown schema: everything downstream of a Fail leaf
	// (which never yields rows) until a fixed-output operator resets
	// the shape. Checks involving an Any schema are skipped.
	Any  bool
	cols []string
	info map[string]ColInfo
}

func newSchema() *Schema { return &Schema{info: map[string]ColInfo{}} }

func anySchema() *Schema { return &Schema{Any: true, info: map[string]ColInfo{}} }

// Cols returns the column names in schema order.
func (s *Schema) Cols() []string { return s.cols }

// Has reports whether the schema contains column c.
func (s *Schema) Has(c string) bool { _, ok := s.info[c]; return ok }

// Info returns the shape of column c (zero value when absent).
func (s *Schema) Info(c string) ColInfo { return s.info[c] }

func (s *Schema) add(c string, ci ColInfo) bool {
	if s.Has(c) {
		return false
	}
	s.cols = append(s.cols, c)
	s.info[c] = ci
	return true
}

func (s *Schema) clone() *Schema {
	out := &Schema{Any: s.Any, cols: append([]string(nil), s.cols...), info: make(map[string]ColInfo, len(s.info))}
	for k, v := range s.info {
		out.info[k] = v
	}
	return out
}

// colProps are planck's independently derived column properties — the
// maximal sound propagation of dense/key/const facts, used to audit
// the optimizer's inference.
type colProps struct {
	dense map[string]bool
	key   map[string]bool
	cnst  map[string]bool
}

func newColProps() *colProps {
	return &colProps{dense: map[string]bool{}, key: map[string]bool{}, cnst: map[string]bool{}}
}

func (cp *colProps) clone() *colProps {
	out := newColProps()
	for c := range cp.dense {
		out.dense[c] = true
	}
	for c := range cp.key {
		out.key[c] = true
	}
	for c := range cp.cnst {
		out.cnst[c] = true
	}
	return out
}

// Info is the per-operator analysis result exposed to plan explainers.
type Info struct {
	// Schema is the inferred output schema.
	Schema *Schema
	// Props is the optimizer-side property inference for the node.
	Props opt.Props
	// Dense, Key, Const are planck's own property claims (sorted).
	Dense, Key, Const []string
}

// Verify checks every operator of the plan DAG rooted at root. It
// returns nil when all invariants hold, and the first violation (in
// inputs-first topological order) as a *PlanInvariantError otherwise.
func Verify(root ralg.Plan, cfg Config) error {
	_, err := Analyze(root, cfg)
	return err
}

// Analyze is Verify exposing the per-node inference results (used by
// plan explainers). On a violation the partial map and the error are
// returned.
func Analyze(root ralg.Plan, cfg Config) (map[ralg.Plan]Info, error) {
	if root == nil {
		return nil, &PlanInvariantError{Op: "<nil>", Msg: "nil plan"}
	}
	v := &verifier{
		cfg:     cfg,
		oprops:  opt.InferProps(root),
		schemas: map[ralg.Plan]*Schema{},
		props:   map[ralg.Plan]*colProps{},
	}
	ralg.Walk(root, v.visit)
	infos := make(map[ralg.Plan]Info, len(v.schemas))
	for n, s := range v.schemas {
		cp := v.props[n]
		infos[n] = Info{
			Schema: s,
			Props:  v.oprops[n],
			Dense:  sortedSet(cp.dense),
			Key:    sortedSet(cp.key),
			Const:  sortedSet(cp.cnst),
		}
	}
	if v.err != nil {
		return infos, v.err
	}
	if cfg.RequireItem {
		s := v.schemas[root]
		if !s.Any {
			if !s.Has("item") {
				return infos, &PlanInvariantError{Op: root.Name(), Msg: fmt.Sprintf("root plan must produce an \"item\" column, has %v", s.Cols())}
			}
			if s.Info("item").Kind != ralg.KItem {
				return infos, &PlanInvariantError{Op: root.Name(), Msg: "root plan's \"item\" column is not of item kind"}
			}
		}
	}
	return infos, nil
}

type verifier struct {
	cfg     Config
	oprops  map[ralg.Plan]opt.Props
	schemas map[ralg.Plan]*Schema
	props   map[ralg.Plan]*colProps
	err     *PlanInvariantError
}

func (v *verifier) failf(n ralg.Plan, format string, args ...any) {
	if v.err == nil {
		v.err = &PlanInvariantError{Op: n.Name(), Msg: fmt.Sprintf(format, args...)}
	}
}

// sch returns the inferred schema of input i (Any for unvisited inputs,
// which cannot happen on a well-formed DAG walk).
func (v *verifier) sch(n ralg.Plan, i int) *Schema {
	ins := n.Inputs()
	if i >= len(ins) || ins[i] == nil {
		v.failf(n, "missing input %d", i)
		return anySchema()
	}
	if s, ok := v.schemas[ins[i]]; ok {
		return s
	}
	return anySchema()
}

func (v *verifier) cprops(n ralg.Plan, i int) *colProps {
	ins := n.Inputs()
	if i < len(ins) {
		if cp, ok := v.props[ins[i]]; ok {
			return cp
		}
	}
	return newColProps()
}

// iprops returns the optimizer-side properties of input i, used for
// order-dependent precondition checks (covers/grpord).
func (v *verifier) iprops(n ralg.Plan, i int) opt.Props {
	ins := n.Inputs()
	if i < len(ins) {
		return v.oprops[ins[i]]
	}
	return opt.Props{}
}

func kindStr(k ralg.ColKind) string {
	switch k {
	case ralg.KInt:
		return "int"
	case ralg.KBool:
		return "bool"
	case ralg.KItem:
		return "item"
	}
	return fmt.Sprintf("kind(%d)", k)
}

// need checks that schema s (of the given input role) has column col of
// the wanted kind; an Any schema passes vacuously.
func (v *verifier) need(n ralg.Plan, s *Schema, role, col string, kind ralg.ColKind) bool {
	if s.Any {
		return true
	}
	if col == "" {
		v.failf(n, "%s column name is empty", role)
		return false
	}
	if !s.Has(col) {
		v.failf(n, "%s column %q not in input schema %v", role, col, s.Cols())
		return false
	}
	if got := s.Info(col).Kind; got != kind {
		v.failf(n, "%s column %q has kind %s, want %s", role, col, kindStr(got), kindStr(kind))
		return false
	}
	return true
}

func sortedSet(m map[string]bool) []string {
	if len(m) == 0 {
		return nil
	}
	out := make([]string, 0, len(m))
	for c := range m {
		out = append(out, c)
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

func (v *verifier) visit(n ralg.Plan) {
	if v.err != nil {
		// after the first violation downstream schemas are meaningless;
		// record Any so Analyze still returns a complete map
		v.schemas[n] = anySchema()
		v.props[n] = newColProps()
		return
	}
	s, cp := v.check(n)
	if s == nil {
		s = anySchema()
	}
	if cp == nil {
		cp = newColProps()
	}
	v.schemas[n] = s
	v.props[n] = cp
	if v.err == nil && !s.Any {
		v.crossCheck(n, s, cp)
	}
}

// crossCheck audits the optimizer's property inference for node n
// against planck's schema and independently derived properties: a
// property claimed for a column that does not exist, a dense claim on
// a non-integer column, or a dense/key/const claim planck's maximal
// sound propagation cannot reproduce is a bug in one of the two
// inference engines.
func (v *verifier) crossCheck(n ralg.Plan, s *Schema, cp *colProps) {
	op := v.oprops[n]
	for _, c := range op.DenseCols() {
		switch {
		case !s.Has(c):
			v.failf(n, "optimizer infers dense(%s) but the column is not in the schema %v", c, s.Cols())
		case s.Info(c).Kind != ralg.KInt:
			v.failf(n, "optimizer infers dense(%s) on a non-integer column", c)
		case !cp.dense[c]:
			v.failf(n, "optimizer infers dense(%s) but planck's propagation refutes it (inference disagreement)", c)
		}
	}
	for _, c := range op.KeyCols() {
		switch {
		case !s.Has(c):
			v.failf(n, "optimizer infers key(%s) but the column is not in the schema %v", c, s.Cols())
		case !cp.key[c]:
			v.failf(n, "optimizer infers key(%s) but planck's propagation refutes it (inference disagreement)", c)
		}
	}
	for _, c := range op.ConstCols() {
		switch {
		case !s.Has(c):
			v.failf(n, "optimizer infers const(%s) but the column is not in the schema %v", c, s.Cols())
		case !cp.cnst[c]:
			v.failf(n, "optimizer infers const(%s) but planck's propagation refutes it (inference disagreement)", c)
		}
	}
	for _, ord := range op.Ords() {
		for _, c := range ord {
			if !s.Has(c) {
				v.failf(n, "optimizer infers ordering %v over a column %q absent from the schema %v", ord, c, s.Cols())
			}
		}
	}
	for _, g := range op.Grps() {
		if !s.Has(g.Group) {
			v.failf(n, "optimizer infers a group ordering by absent column %q", g.Group)
		}
		for _, c := range g.Cols {
			if !s.Has(c) {
				v.failf(n, "optimizer infers group ordering %v over absent column %q", g.Cols, c)
			}
		}
	}
}

// check infers node n's output schema and planck-side properties after
// validating its preconditions. A nil schema means Any.
func (v *verifier) check(n ralg.Plan) (*Schema, *colProps) {
	switch x := n.(type) {
	case *ralg.Lit:
		return v.checkLit(x)
	case *ralg.LitDecl:
		return v.checkLitDecl(x)
	case *ralg.DocRoot:
		if x.Doc == "" {
			v.failf(n, "empty document name")
		}
		return v.rootSchema(true, xqt.KNode, true)
	case *ralg.ContextRoot:
		s, cp := v.rootSchema(true, xqt.KNode, true)
		// the item depends on the execution's context document: constant
		// within one execution (single row), still a key
		return s, cp
	case *ralg.ParamTable:
		if v.cfg.Params != nil && !v.cfg.Params[x.Var] {
			v.failf(n, "references undeclared variable $%s", x.Var)
		}
		s := newSchema()
		s.add("pos", ColInfo{Kind: ralg.KInt})
		s.add("item", ColInfo{Kind: ralg.KItem})
		cp := newColProps()
		cp.dense["pos"] = true
		cp.key["pos"] = true
		return s, cp
	case *ralg.CollectionRoot:
		if x.Coll == "" {
			v.failf(n, "empty collection name")
		}
		s := newSchema()
		s.add("pos", ColInfo{Kind: ralg.KInt})
		s.add("item", ColInfo{Kind: ralg.KItem, Node: true, Tag: xqt.KNode, TagKnown: true})
		cp := newColProps()
		cp.dense["pos"] = true
		cp.key["pos"] = true
		cp.key["item"] = true
		return s, cp
	case *ralg.Fail:
		if x.Code == "" {
			v.failf(n, "empty error code")
		}
		return anySchema(), nil
	case *ralg.Project:
		return v.checkProject(x)
	case *ralg.Attach:
		return v.checkAttach(x)
	case *ralg.Select:
		in := v.sch(n, 0)
		v.need(n, in, "condition", x.Cond, ralg.KBool)
		cp := v.cprops(n, 0).clone()
		cp.dense = map[string]bool{} // dropped rows leave gaps
		return in, cp
	case *ralg.Fun:
		return v.checkFun(x)
	case *ralg.RowNum:
		return v.checkRowNum(x)
	case *ralg.Sort:
		return v.checkSort(x)
	case *ralg.HashJoin:
		return v.checkHashJoin(x)
	case *ralg.ExistJoin:
		return v.checkExistJoin(x)
	case *ralg.Cross:
		return v.checkJoinCols(x, x.LCols, x.RCols)
	case *ralg.Union:
		return v.checkUnion(x)
	case *ralg.Diff:
		l, r := v.sch(n, 0), v.sch(n, 1)
		v.need(n, l, "left key", x.LKey, ralg.KInt)
		v.need(n, r, "right key", x.RKey, ralg.KInt)
		cp := v.cprops(n, 0).clone()
		cp.dense = map[string]bool{}
		return l, cp
	case *ralg.Distinct:
		in := v.sch(n, 0)
		if len(x.By) == 0 {
			v.failf(n, "no distinct-by columns")
		}
		for _, c := range x.By {
			if !in.Any && !in.Has(c) {
				v.failf(n, "distinct-by column %q not in input schema %v", c, in.Cols())
			}
		}
		if x.Merge && !v.iprops(n, 0).Covers(x.By) {
			v.failf(n, "merge mode requires the input sorted on %v, which is not provable", x.By)
		}
		cp := v.cprops(n, 0).clone()
		cp.dense = map[string]bool{}
		return in, cp
	case *ralg.Aggr:
		return v.checkAggr(x)
	case *ralg.Step:
		return v.checkStep(n, x.IterCol, x.ItemCol, xqt.KNode)
	case *ralg.AttrStep:
		return v.checkStep(n, x.IterCol, x.ItemCol, xqt.KAttr)
	case *ralg.ElemConstruct:
		return v.checkElem(x)
	case *ralg.ColToItem:
		return v.checkColToItem(x)
	case *ralg.RangeGen:
		in := v.sch(n, 0)
		v.need(n, in, "iter", x.Iter, ralg.KInt)
		v.need(n, in, "range lower bound", x.Lo, ralg.KItem)
		v.need(n, in, "range upper bound", x.Hi, ralg.KItem)
		s := newSchema()
		s.add("iter", ColInfo{Kind: ralg.KInt})
		s.add("pos", ColInfo{Kind: ralg.KInt})
		s.add("item", ColInfo{Kind: ralg.KItem, Tag: xqt.KInt, TagKnown: true})
		return s, nil
	case *ralg.CoverCheck:
		loop, in := v.sch(n, 0), v.sch(n, 1)
		v.need(n, loop, "loop iter", x.LoopIter, ralg.KInt)
		v.need(n, in, "partition", x.Part, ralg.KInt)
		if x.Fn == "" {
			v.failf(n, "empty function name for error reporting")
		}
		return in, v.cprops(n, 1).clone()
	case *ralg.EBV:
		in := v.sch(n, 0)
		v.need(n, in, "partition", x.Part, ralg.KInt)
		v.need(n, in, "item", x.Item, ralg.KItem)
		if x.Out == x.Part {
			v.failf(n, "output column %q collides with the partition column", x.Out)
		}
		s := newSchema()
		s.add(x.Part, ColInfo{Kind: ralg.KInt})
		s.add(x.Out, ColInfo{Kind: ralg.KBool})
		cp := newColProps()
		cp.key[x.Part] = true
		return s, cp
	case *ralg.CardCheck:
		in := v.sch(n, 0)
		v.need(n, in, "partition", x.Part, ralg.KInt)
		if x.Fn == "" {
			v.failf(n, "empty function name for error reporting")
		}
		return in, v.cprops(n, 0).clone()
	}
	v.failf(n, "unknown operator %T", n)
	return nil, nil
}

func (v *verifier) rootSchema(node bool, tag xqt.Kind, constItem bool) (*Schema, *colProps) {
	s := newSchema()
	s.add("pos", ColInfo{Kind: ralg.KInt})
	s.add("item", ColInfo{Kind: ralg.KItem, Node: node, Tag: tag, TagKnown: node})
	cp := newColProps()
	cp.dense["pos"] = true
	cp.key["pos"] = true
	cp.key["item"] = true
	cp.cnst["pos"] = true
	if constItem {
		cp.cnst["item"] = true
	}
	return s, cp
}

func (v *verifier) checkLit(x *ralg.Lit) (*Schema, *colProps) {
	return v.litSchema(x, x.Tab)
}

// litSchema infers the schema and directly observable properties of a
// literal table (shared by Lit and LitDecl).
func (v *verifier) litSchema(n ralg.Plan, tab *ralg.Table) (*Schema, *colProps) {
	if tab == nil {
		v.failf(n, "nil literal table")
		return nil, nil
	}
	s := newSchema()
	cp := newColProps()
	for _, name := range tab.Names() {
		c := tab.Col(name)
		ci := ColInfo{Kind: c.Kind}
		if c.Kind == ralg.KItem {
			if k, ok := c.Item.Uniform(); ok && c.Item.Len() > 0 {
				ci.Tag, ci.TagKnown = k, true
				ci.Node = k == xqt.KNode || k == xqt.KAttr
			}
		}
		if !s.add(name, ci) {
			v.failf(n, "duplicate column %q in literal table", name)
			return s, cp
		}
		if tab.N <= 1 {
			cp.cnst[name] = true
		}
		if c.Kind == ralg.KInt {
			uniq, dense := true, true
			seen := make(map[int64]bool, len(c.Int))
			for i, val := range c.Int {
				if seen[val] {
					uniq = false
				}
				seen[val] = true
				if val != int64(i)+1 {
					dense = false
				}
			}
			if uniq {
				cp.key[name] = true
			}
			if dense {
				cp.dense[name] = true
			}
		}
	}
	return s, cp
}

// litVal returns the comparable value of column c at row i (xqt.Item is
// a comparable struct), for duplicate and group detection.
func litVal(c *ralg.Col, i int) any {
	switch c.Kind {
	case ralg.KInt:
		return c.Int[i]
	case ralg.KBool:
		return c.Bool[i]
	default:
		return c.Item.At(i)
	}
}

// checkLitDecl infers a declared literal's schema like a plain Lit and
// then verifies every declared §4.1 property against the table's actual
// rows, merging the verified claims into planck's own property set (so
// the optimizer's inference over the declarations passes crossCheck). A
// declaration the data refutes is a plan invariant violation — this is
// what makes LitDecl a sound stand-in for an arbitrary subplan with
// known properties.
func (v *verifier) checkLitDecl(x *ralg.LitDecl) (*Schema, *colProps) {
	s, cp := v.litSchema(x, x.Tab)
	if v.err != nil || s == nil {
		return s, cp
	}
	t := x.Tab
	has := func(role, c string) bool {
		if !s.Has(c) {
			v.failf(x, "declared %s names column %q absent from the table schema %v", role, c, s.Cols())
			return false
		}
		return true
	}
	for _, c := range x.Dense {
		if !has("dense", c) {
			continue
		}
		col := t.Col(c)
		if col.Kind != ralg.KInt {
			v.failf(x, "declared dense(%s) on a non-integer column", c)
			continue
		}
		ok := true
		for i, val := range col.Int {
			if val != int64(i)+1 {
				v.failf(x, "declared dense(%s) but row %d holds %d", c, i, val)
				ok = false
				break
			}
		}
		if ok {
			cp.dense[c] = true
		}
	}
	for _, c := range x.Key {
		if !has("key", c) {
			continue
		}
		col := t.Col(c)
		seen := make(map[any]bool, t.N)
		ok := true
		for i := 0; i < t.N; i++ {
			k := litVal(col, i)
			if seen[k] {
				v.failf(x, "declared key(%s) but row %d repeats an earlier value", c, i)
				ok = false
				break
			}
			seen[k] = true
		}
		if ok {
			cp.key[c] = true
		}
	}
	for _, c := range x.Const {
		if !has("const", c) {
			continue
		}
		col := t.Col(c)
		ok := true
		for i := 1; i < t.N; i++ {
			if litVal(col, i) != litVal(col, 0) {
				v.failf(x, "declared const(%s) but rows 0 and %d differ", c, i)
				ok = false
				break
			}
		}
		if ok {
			cp.cnst[c] = true
		}
	}
	for _, ord := range x.Ords {
		ok := len(ord) > 0
		for _, c := range ord {
			ok = has("ordering", c) && ok
		}
		if !ok {
			continue
		}
		if !ralg.IsSortedBy(t, ord) {
			v.failf(x, "declared ordering %v but the table is not sorted on it", ord)
		}
	}
	for _, g := range x.Grps {
		ok := has("group ordering", g.Group) && len(g.Cols) > 0
		for _, c := range g.Cols {
			ok = has("group ordering", c) && ok
		}
		if !ok {
			continue
		}
		// within each group (rows with equal group values, not
		// necessarily consecutive) the subsequence must be sorted, i.e.
		// every adjacent same-group pair must be ordered
		gc := t.Col(g.Group)
		last := make(map[any]int, t.N)
		for i := 0; i < t.N; i++ {
			k := litVal(gc, i)
			if j, seen := last[k]; seen && ralg.CompareRowsOn(t, g.Cols, j, i) > 0 {
				v.failf(x, "declared group ordering %v by %s but rows %d and %d of one group are out of order", g.Cols, g.Group, j, i)
				break
			}
			last[k] = i
		}
	}
	return s, cp
}

func (v *verifier) checkProject(x *ralg.Project) (*Schema, *colProps) {
	in := v.sch(x, 0)
	if in.Any {
		return anySchema(), nil
	}
	if len(x.Cols) == 0 {
		v.failf(x, "empty projection")
		return nil, nil
	}
	s := newSchema()
	for _, ref := range x.Cols {
		if !in.Has(ref.Src) {
			v.failf(x, "source column %q not in input schema %v", ref.Src, in.Cols())
			return nil, nil
		}
		if !s.add(ref.Dst, in.Info(ref.Src)) {
			v.failf(x, "duplicate output column %q", ref.Dst)
			return nil, nil
		}
	}
	icp := v.cprops(x, 0)
	cp := newColProps()
	for _, ref := range x.Cols {
		if icp.dense[ref.Src] {
			cp.dense[ref.Dst] = true
		}
		if icp.key[ref.Src] {
			cp.key[ref.Dst] = true
		}
		if icp.cnst[ref.Src] {
			cp.cnst[ref.Dst] = true
		}
	}
	return s, cp
}

func (v *verifier) checkAttach(x *ralg.Attach) (*Schema, *colProps) {
	in := v.sch(x, 0)
	if in.Any {
		return anySchema(), nil
	}
	s := in.clone()
	ci := ColInfo{Kind: x.Kind}
	switch x.Kind {
	case ralg.KInt, ralg.KBool:
	case ralg.KItem:
		ci.Tag, ci.TagKnown = x.It.K, true
		ci.Node = x.It.IsNode()
	default:
		v.failf(x, "invalid attached column kind %d", x.Kind)
	}
	if !s.add(x.Col, ci) {
		v.failf(x, "attached column %q already exists in %v", x.Col, in.Cols())
	}
	cp := v.cprops(x, 0).clone()
	cp.cnst[x.Col] = true
	return s, cp
}

// funSpec describes one row-wise function: argument count, argument
// kind ("" = any of int/bool/item — the comparisons), output kind.
type funSpec struct {
	name  string
	arity int
	arg   string // "item", "bool", or "" for any
	out   ralg.ColKind
	tag   xqt.Kind // uniform output tag when out == KItem and tagKnown
	known bool
}

var funSpecs = map[ralg.FunOp]funSpec{
	ralg.FunAdd:        {"add", 2, "item", ralg.KItem, 0, false},
	ralg.FunSub:        {"sub", 2, "item", ralg.KItem, 0, false},
	ralg.FunMul:        {"mul", 2, "item", ralg.KItem, 0, false},
	ralg.FunDiv:        {"div", 2, "item", ralg.KItem, 0, false},
	ralg.FunIDiv:       {"idiv", 2, "item", ralg.KItem, 0, false},
	ralg.FunMod:        {"mod", 2, "item", ralg.KItem, 0, false},
	ralg.FunNeg:        {"neg", 1, "item", ralg.KItem, 0, false},
	ralg.FunEq:         {"eq", 2, "", ralg.KBool, 0, false},
	ralg.FunNe:         {"ne", 2, "", ralg.KBool, 0, false},
	ralg.FunLt:         {"lt", 2, "", ralg.KBool, 0, false},
	ralg.FunLe:         {"le", 2, "", ralg.KBool, 0, false},
	ralg.FunGt:         {"gt", 2, "", ralg.KBool, 0, false},
	ralg.FunGe:         {"ge", 2, "", ralg.KBool, 0, false},
	ralg.FunAnd:        {"and", 2, "bool", ralg.KBool, 0, false},
	ralg.FunOr:         {"or", 2, "bool", ralg.KBool, 0, false},
	ralg.FunNot:        {"not", 1, "bool", ralg.KBool, 0, false},
	ralg.FunAtomize:    {"atomize", 1, "item", ralg.KItem, 0, false},
	ralg.FunStringOf:   {"string", 1, "item", ralg.KItem, xqt.KString, true},
	ralg.FunNumber:     {"number", 1, "item", ralg.KItem, xqt.KDouble, true},
	ralg.FunContains:   {"contains", 2, "item", ralg.KBool, 0, false},
	ralg.FunStartsWith: {"starts-with", 2, "item", ralg.KBool, 0, false},
	ralg.FunConcat:     {"concat", 2, "item", ralg.KItem, xqt.KString, true},
	ralg.FunNodeBefore: {"node-before", 2, "item", ralg.KBool, 0, false},
	ralg.FunNodeAfter:  {"node-after", 2, "item", ralg.KBool, 0, false},
	ralg.FunNodeIs:     {"node-is", 2, "item", ralg.KBool, 0, false},
	ralg.FunNameOf:     {"name", 1, "item", ralg.KItem, xqt.KString, true},
	ralg.FunIsNumeric:  {"is-numeric", 1, "item", ralg.KBool, 0, false},
	ralg.FunEbvAtom:    {"ebv-atom", 1, "item", ralg.KBool, 0, false},
	ralg.FunFloor:      {"floor", 1, "item", ralg.KItem, xqt.KDouble, true},
	ralg.FunCeil:       {"ceiling", 1, "item", ralg.KItem, xqt.KDouble, true},
	ralg.FunRound:      {"round", 1, "item", ralg.KItem, xqt.KDouble, true},
	ralg.FunStrLen:     {"string-length", 1, "item", ralg.KItem, xqt.KInt, true},
	ralg.FunLocalName:  {"local-name", 1, "item", ralg.KItem, xqt.KString, true},
}

func (v *verifier) checkFun(x *ralg.Fun) (*Schema, *colProps) {
	in := v.sch(x, 0)
	spec, ok := funSpecs[x.Op]
	if !ok {
		v.failf(x, "unknown function op %d", x.Op)
		return nil, nil
	}
	if len(x.Args) != spec.arity {
		v.failf(x, "%s takes %d arguments, got %d", spec.name, spec.arity, len(x.Args))
		return nil, nil
	}
	if in.Any {
		return anySchema(), nil
	}
	for _, a := range x.Args {
		if !in.Has(a) {
			v.failf(x, "%s argument %q not in input schema %v", spec.name, a, in.Cols())
			return nil, nil
		}
		got := in.Info(a).Kind
		switch spec.arg {
		case "item":
			// non-comparison fallbacks materialize only item columns, so
			// an int/bool argument would dereference a nil vector
			if got != ralg.KItem {
				v.failf(x, "%s argument %q has kind %s, want item", spec.name, a, kindStr(got))
				return nil, nil
			}
		case "bool":
			if got != ralg.KBool {
				v.failf(x, "%s argument %q has kind %s, want bool", spec.name, a, kindStr(got))
				return nil, nil
			}
		}
	}
	s := in.clone()
	if !s.add(x.Out, ColInfo{Kind: spec.out, Tag: spec.tag, TagKnown: spec.known}) {
		v.failf(x, "output column %q already exists in %v", x.Out, in.Cols())
	}
	return s, v.cprops(x, 0).clone()
}

func (v *verifier) checkRowNum(x *ralg.RowNum) (*Schema, *colProps) {
	in := v.sch(x, 0)
	hasDesc := false
	for _, d := range x.Desc {
		hasDesc = hasDesc || d
	}
	if len(x.Desc) != 0 && len(x.Desc) != len(x.OrderBy) {
		v.failf(x, "%d descending flags for %d order-by columns", len(x.Desc), len(x.OrderBy))
	}
	if !in.Any {
		for _, c := range x.OrderBy {
			if !in.Has(c) {
				v.failf(x, "order-by column %q not in input schema %v", c, in.Cols())
			}
		}
		if x.Part != "" {
			v.need(x, in, "partition", x.Part, ralg.KInt)
		}
	}
	ip := v.iprops(x, 0)
	switch x.Mode {
	case ralg.RankSeq:
		full := x.OrderBy
		if x.Part != "" {
			full = append([]string{x.Part}, x.OrderBy...)
		}
		if hasDesc {
			v.failf(x, "sequential rank mode with a descending order-by component")
		} else if !ip.Covers(full) {
			v.failf(x, "sequential rank mode requires the input sorted on %v, which is not provable", full)
		}
	case ralg.RankStream:
		if x.Part == "" {
			v.failf(x, "streaming rank mode without a partition column")
		} else if hasDesc {
			v.failf(x, "streaming rank mode with a descending order-by component")
		} else if !ip.GrpCovered(x.OrderBy, x.Part) {
			v.failf(x, "streaming rank mode requires grpord(%v, %s), which is not provable", x.OrderBy, x.Part)
		}
	}
	if in.Any {
		return anySchema(), nil
	}
	s := in.clone()
	if !s.add(x.Out, ColInfo{Kind: ralg.KInt}) {
		v.failf(x, "output column %q already exists in %v", x.Out, in.Cols())
	}
	cp := v.cprops(x, 0).clone()
	if x.Part == "" {
		// ranks over the whole table are a permutation of 1..N
		cp.key[x.Out] = true
		if !hasDesc && ip.Covers(x.OrderBy) {
			cp.dense[x.Out] = true // already in rank order: out[i] == i+1
		}
	}
	return s, cp
}

func (v *verifier) checkSort(x *ralg.Sort) (*Schema, *colProps) {
	in := v.sch(x, 0)
	if len(x.By) == 0 {
		v.failf(x, "no sort columns")
	}
	if len(x.Desc) != 0 && len(x.Desc) != len(x.By) {
		v.failf(x, "%d descending flags for %d sort columns", len(x.Desc), len(x.By))
	}
	if !in.Any {
		for _, c := range x.By {
			if !in.Has(c) {
				v.failf(x, "sort column %q not in input schema %v", c, in.Cols())
			}
		}
	}
	if x.RefinePrefix < 0 || x.RefinePrefix > len(x.By) {
		v.failf(x, "refine prefix %d out of range for %d sort columns", x.RefinePrefix, len(x.By))
	} else if x.RefinePrefix > 0 {
		for _, d := range x.Desc[:min(len(x.Desc), x.RefinePrefix)] {
			if d {
				v.failf(x, "refine sort over a descending prefix component")
			}
		}
		if v.err == nil && !v.iprops(x, 0).Covers(x.By[:x.RefinePrefix]) {
			v.failf(x, "refine prefix %d requires the input sorted on %v, which is not provable", x.RefinePrefix, x.By[:x.RefinePrefix])
		}
	}
	if in.Any {
		return anySchema(), nil
	}
	icp := v.cprops(x, 0)
	cp := newColProps()
	cp.key = icp.clone().key
	cp.cnst = icp.clone().cnst
	// a stable sort keyed first by an already-dense column is the
	// identity permutation: density survives; any other sort reorders
	if len(x.By) > 0 && (len(x.Desc) == 0 || !x.Desc[0]) && icp.dense[x.By[0]] {
		for c := range icp.dense {
			cp.dense[c] = true
		}
	}
	return in, cp
}

func (v *verifier) checkJoinCols(n ralg.Plan, lcols, rcols []ralg.ColRef) (*Schema, *colProps) {
	l, r := v.sch(n, 0), v.sch(n, 1)
	if l.Any || r.Any {
		return anySchema(), nil
	}
	s := newSchema()
	for _, ref := range lcols {
		if !l.Has(ref.Src) {
			v.failf(n, "left column %q not in input schema %v", ref.Src, l.Cols())
			return nil, nil
		}
		if !s.add(ref.Dst, l.Info(ref.Src)) {
			v.failf(n, "duplicate output column %q", ref.Dst)
			return nil, nil
		}
	}
	for _, ref := range rcols {
		if !r.Has(ref.Src) {
			v.failf(n, "right column %q not in input schema %v", ref.Src, r.Cols())
			return nil, nil
		}
		if !s.add(ref.Dst, r.Info(ref.Src)) {
			v.failf(n, "duplicate output column %q", ref.Dst)
			return nil, nil
		}
	}
	lcp, rcp := v.cprops(n, 0), v.cprops(n, 1)
	cp := newColProps()
	for _, ref := range lcols {
		if lcp.cnst[ref.Src] {
			cp.cnst[ref.Dst] = true
		}
	}
	for _, ref := range rcols {
		if rcp.cnst[ref.Src] {
			cp.cnst[ref.Dst] = true
		}
	}
	return s, cp
}

func (v *verifier) checkHashJoin(x *ralg.HashJoin) (*Schema, *colProps) {
	l, r := v.sch(x, 0), v.sch(x, 1)
	v.need(x, l, "left key", x.LKey, ralg.KInt)
	v.need(x, r, "right key", x.RKey, ralg.KInt)
	lp, rp := v.iprops(x, 0), v.iprops(x, 1)
	if x.Pos && x.PosLeft {
		v.failf(x, "both positional modes set")
	}
	if x.Pos && !rp.Dense(x.RKey) {
		v.failf(x, "positional mode requires a dense right key %q, which is not provable", x.RKey)
	}
	if x.PosLeft && !(lp.Dense(x.LKey) && lp.Key(x.LKey) && rp.Covers([]string{x.RKey})) {
		v.failf(x, "left-positional mode requires a dense unique left key %q and a key-sorted right input, which is not provable", x.LKey)
	}
	s, cp := v.checkJoinCols(x, x.LCols, x.RCols)
	if s == nil || s.Any || cp == nil {
		return s, cp
	}
	// key columns survive on the side whose partner key is unique
	lcp, rcp := v.cprops(x, 0), v.cprops(x, 1)
	if rcp.key[x.RKey] {
		for _, ref := range x.LCols {
			if lcp.key[ref.Src] {
				cp.key[ref.Dst] = true
			}
		}
	}
	if lcp.key[x.LKey] {
		for _, ref := range x.RCols {
			if rcp.key[ref.Src] {
				cp.key[ref.Dst] = true
			}
		}
	}
	return s, cp
}

func (v *verifier) checkExistJoin(x *ralg.ExistJoin) (*Schema, *colProps) {
	l, r := v.sch(x, 0), v.sch(x, 1)
	v.need(x, l, "left iter", x.LIter, ralg.KInt)
	v.need(x, l, "left item", x.LItem, ralg.KItem)
	v.need(x, r, "right iter", x.RIter, ralg.KInt)
	v.need(x, r, "right item", x.RItem, ralg.KItem)
	if x.Out1 == "" || x.Out2 == "" || x.Out1 == x.Out2 {
		v.failf(x, "invalid output columns (%q, %q)", x.Out1, x.Out2)
	}
	s := newSchema()
	s.add(x.Out1, ColInfo{Kind: ralg.KInt})
	s.add(x.Out2, ColInfo{Kind: ralg.KInt})
	cp := newColProps()
	if x.Count { // one row per iter1
		cp.key[x.Out1] = true
	}
	return s, cp
}

func (v *verifier) checkUnion(x *ralg.Union) (*Schema, *colProps) {
	if len(x.Ins) == 0 {
		v.failf(x, "union of zero inputs")
		return nil, nil
	}
	var ref *Schema
	refIdx := -1
	for i := range x.Ins {
		if s := v.sch(x, i); !s.Any {
			ref, refIdx = s, i
			break
		}
	}
	if ref == nil {
		return anySchema(), nil
	}
	out := ref.clone()
	for i := range x.Ins {
		s := v.sch(x, i)
		if s.Any || i == refIdx {
			continue
		}
		for _, c := range ref.Cols() {
			if !s.Has(c) {
				v.failf(x, "input %d lacks column %q of input %d's schema %v", i, c, refIdx, ref.Cols())
				return out, nil
			}
			a, b := ref.Info(c), s.Info(c)
			if a.Kind != b.Kind {
				v.failf(x, "column %q has kind %s in input %d but %s in input %d", c, kindStr(a.Kind), refIdx, kindStr(b.Kind), i)
				return out, nil
			}
			merged := out.info[c]
			merged.Node = merged.Node && b.Node
			if merged.TagKnown && (!b.TagKnown || b.Tag != merged.Tag) {
				merged.TagKnown = false
				merged.Tag = 0
			}
			out.info[c] = merged
		}
		if len(s.Cols()) != len(ref.Cols()) {
			v.failf(x, "input %d has columns %v, want %v", i, s.Cols(), ref.Cols())
			return out, nil
		}
	}
	var cp *colProps
	if len(x.Ins) == 1 {
		cp = v.cprops(x, 0).clone()
	}
	return out, cp
}

func (v *verifier) checkAggr(x *ralg.Aggr) (*Schema, *colProps) {
	in := v.sch(x, 0)
	v.need(x, in, "partition", x.Part, ralg.KInt)
	if x.Op != ralg.AggCount {
		v.need(x, in, "aggregate argument", x.Arg, ralg.KItem)
	}
	if x.Out == x.Part {
		v.failf(x, "output column %q collides with the partition column", x.Out)
	}
	s := newSchema()
	s.add(x.Part, ColInfo{Kind: ralg.KInt})
	ci := ColInfo{Kind: ralg.KItem}
	if x.Op == ralg.AggCount {
		ci.Tag, ci.TagKnown = xqt.KInt, true
	}
	s.add(x.Out, ci)
	cp := newColProps()
	cp.key[x.Part] = true
	return s, cp
}

// checkStep validates a Step/AttrStep input: the iter column must be
// integer, the item column an item column, and — the staircase-join
// hard precondition — the input must be provably sorted on
// (item, iter); the executor refuses to run otherwise. A constant input
// iter column stays constant in the output.
func (v *verifier) checkStep(n ralg.Plan, iterCol, itemCol string, outTag xqt.Kind) (*Schema, *colProps) {
	in := v.sch(n, 0)
	okIter := v.need(n, in, "iter", iterCol, ralg.KInt)
	okItem := v.need(n, in, "item", itemCol, ralg.KItem)
	if okIter && okItem && !in.Any {
		if !v.iprops(n, 0).Covers([]string{itemCol, iterCol}) {
			v.failf(n, "input not provably sorted on (%s, %s): plan misses a sort", itemCol, iterCol)
		}
	}
	s := newSchema()
	s.add("iter", ColInfo{Kind: ralg.KInt})
	s.add("item", ColInfo{Kind: ralg.KItem, Node: true, Tag: outTag, TagKnown: true})
	cp := newColProps()
	if v.cprops(n, 0).cnst[iterCol] {
		cp.cnst["iter"] = true // the output's iterations are a subset of the input's
	}
	return s, cp
}

func (v *verifier) checkElem(x *ralg.ElemConstruct) (*Schema, *colProps) {
	if x.Tag == "" {
		v.failf(x, "empty element tag")
	}
	loop, content := v.sch(x, 0), v.sch(x, 1)
	v.need(x, loop, "loop iter", "iter", ralg.KInt)
	v.need(x, content, "content iter", "iter", ralg.KInt)
	v.need(x, content, "content item", "item", ralg.KItem)
	i := 2
	for _, a := range x.Attrs {
		if a.Attr == "" {
			v.failf(x, "empty attribute name")
		}
		for range a.Parts {
			ps := v.sch(x, i)
			v.need(x, ps, fmt.Sprintf("attribute %q part iter", a.Attr), "iter", ralg.KInt)
			v.need(x, ps, fmt.Sprintf("attribute %q part item", a.Attr), "item", ralg.KItem)
			i++
		}
	}
	s := newSchema()
	s.add("iter", ColInfo{Kind: ralg.KInt})
	s.add("item", ColInfo{Kind: ralg.KItem, Node: true, Tag: xqt.KNode, TagKnown: true})
	cp := newColProps()
	if v.cprops(x, 0).key["iter"] {
		cp.key["iter"] = true // one output row per loop row
	}
	return s, cp
}

func (v *verifier) checkColToItem(x *ralg.ColToItem) (*Schema, *colProps) {
	in := v.sch(x, 0)
	if in.Any {
		return anySchema(), nil
	}
	if !in.Has(x.Src) {
		v.failf(x, "source column %q not in input schema %v", x.Src, in.Cols())
		return nil, nil
	}
	src := in.Info(x.Src)
	ci := ColInfo{Kind: ralg.KItem}
	switch src.Kind {
	case ralg.KInt:
		ci.Tag, ci.TagKnown = xqt.KInt, true
	case ralg.KBool:
		ci.Tag, ci.TagKnown = xqt.KBool, true
	default:
		ci = src
	}
	s := in.clone()
	if !s.add(x.Dst, ci) {
		v.failf(x, "output column %q already exists in %v", x.Dst, in.Cols())
	}
	return s, v.cprops(x, 0).clone()
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
