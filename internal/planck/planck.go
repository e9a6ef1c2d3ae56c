// Package planck is the static plan verifier: it walks a compiled ralg
// plan DAG inputs-first, infers every operator's output schema (column
// names, node-ness and — where statically known — the uniform item tag
// that types a column: iter and pos columns are xs:integer, a
// comparison's result xs:boolean) plus a conservative set of the §4.1
// column properties (key-ness, constness), and checks each operator's
// preconditions against its inferred inputs. A malformed plan — a
// Select over a missing or non-boolean column, a Step whose input is
// not provably in (item, iter) order, a rank operator whose streaming
// mode its input order cannot justify — is rejected at compile time
// with a structured *PlanInvariantError naming the offending operator,
// instead of surfacing as a contained executor panic or, worse, wrong
// bytes.
//
// planck's own property inference is deliberately independent of the
// optimizer's: internal/opt's inferred properties are cross-checked
// against planck's maximal sound propagation rules, so an optimizer
// claim planck cannot reproduce (a key conjured out of thin air) is
// itself reported as a plan invariant violation — inference
// disagreement means one of the two is wrong.
//
// The verifier checks structural invariants the compiler guarantees by
// construction; it never rejects on runtime value semantics (e.g. a
// path step over a statically atom-tagged column still compiles — the
// spec prescribes a dynamic error there, and the executor raises it).
package planck

import (
	"fmt"
	"maps"
	"slices"

	"mxq/internal/opt"
	"mxq/internal/ralg"
	"mxq/internal/scj"
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
	// RequireItem demands that the root plan produce an "item" column —
	// the contract of every result-producing plan (the engine reads the
	// result sequence off that column).
	RequireItem bool
	// Serialized says the root's items are only serialized (a
	// statement's main plan), so a by-reference constructor may reach
	// it; a parameter initializer's root is bound and read as nodes.
	Serialized bool
}

// ColInfo is the statically inferred type of one output column. Every
// column is an item column; it is typed by its tag when all its rows
// provably share one.
type ColInfo struct {
	// Node marks a column statically known to hold only nodes.
	Node bool
	// Tag is the uniform item tag when TagKnown (e.g. every iter column
	// is xs:integer, every Step output is node-tagged, every fn:string
	// result is string-tagged).
	Tag      xqt.Kind
	TagKnown bool
}

// intInfo types an xs:integer column: iter, pos, ranks and counts.
var intInfo = ColInfo{Tag: xqt.KInt, TagKnown: true}

// Is reports whether the column is known to hold only items of kind k.
func (ci ColInfo) Is(k xqt.Kind) bool { return ci.TagKnown && ci.Tag == k }

// String renders the column's type: "node" for a node column, its tag
// when known, "item" otherwise.
func (ci ColInfo) String() string {
	switch {
	case ci.Node:
		return "node"
	case ci.TagKnown:
		return ci.Tag.String()
	}
	return "item"
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
// maximal sound propagation of key/const facts, used to audit the
// optimizer's inference. A node's colProps never change once it is
// checked, so an operator that keeps its input's properties returns
// them, and one that adds to them clones them first.
type colProps struct {
	key  map[string]bool
	cnst map[string]bool
}

func newColProps() *colProps {
	return &colProps{key: map[string]bool{}, cnst: map[string]bool{}}
}

func (cp *colProps) clone() *colProps {
	out := newColProps()
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
	// Key and Const are planck's own property claims (sorted).
	Key, Const []string
}

// Verify numbers the plan DAG rooted at root and analyzes it (Analyze).
// It stays for callers holding a root, not a schedule: the repository
// benchmark (bench/) and optcheck's synthesized inputs.
func Verify(root ralg.Plan, cfg Config) error {
	_, err := Analyze(ralg.NewSchedule(root), cfg)
	return err
}

// Analyze checks every operator of the numbered plan s, in number order.
// It returns each node's inference results by its number, and the first
// violation as a *PlanInvariantError; nodes past a violation get an Any
// schema.
func Analyze(s ralg.Schedule, cfg Config) ([]Info, error) {
	if len(s) == 0 {
		return nil, &PlanInvariantError{Op: "<nil>", Msg: "nil plan"}
	}
	v := &verifier{
		cfg:     cfg,
		oprops:  opt.InferProps(s),
		schemas: make([]*Schema, len(s)),
		props:   make([]*colProps, len(s)),
	}
	for i, op := range s {
		v.in = op.In
		v.visit(i, op.Plan)
	}
	infos := make([]Info, len(s))
	for i, cp := range v.props { // a set sorts to nil when empty
		infos[i] = Info{Schema: v.schemas[i], Props: v.oprops[i], Key: slices.Sorted(maps.Keys(cp.key)), Const: slices.Sorted(maps.Keys(cp.cnst))}
	}
	if v.err == nil {
		v.err = byRefViolation(s, cfg)
	}
	if v.err != nil {
		return infos, v.err
	}
	root := s[len(s)-1].Plan
	if sch := infos[len(s)-1].Schema; cfg.RequireItem && !sch.Any && !sch.Has("item") {
		return infos, &PlanInvariantError{Op: root.Name(), Msg: fmt.Sprintf("root plan must produce an \"item\" column, has %v", sch.Cols())}
	}
	return infos, nil
}

// verifier holds the results so far by node number; in is the input
// numbers of the node being checked.
type verifier struct {
	cfg     Config
	oprops  []opt.Props
	schemas []*Schema
	props   []*colProps
	in      []int
	err     *PlanInvariantError
}

func (v *verifier) failf(n ralg.Plan, format string, args ...any) {
	if v.err == nil {
		v.err = &PlanInvariantError{Op: n.Name(), Msg: fmt.Sprintf(format, args...)}
	}
}

// sch returns the inferred schema of n's input i; a nil input fails
// the check.
func (v *verifier) sch(n ralg.Plan, i int) *Schema {
	if i >= len(v.in) || v.in[i] < 0 {
		v.failf(n, "missing input %d", i)
		return anySchema()
	}
	return v.schemas[v.in[i]]
}

// cprops returns planck's own properties of input i.
func (v *verifier) cprops(i int) *colProps {
	if i < len(v.in) && v.in[i] >= 0 {
		return v.props[v.in[i]]
	}
	return newColProps()
}

// iprops returns the optimizer-side properties of input i, used for
// order-dependent precondition checks (covers/grpord).
func (v *verifier) iprops(i int) opt.Props {
	if i < len(v.in) && v.in[i] >= 0 {
		return v.oprops[v.in[i]]
	}
	return opt.Props{}
}

// have checks that schema s (of the given input role) has column col;
// an Any schema passes vacuously.
func (v *verifier) have(n ralg.Plan, s *Schema, role, col string) bool {
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
	return true
}

// need is have for a column whose tag must be known to be k: an
// xs:integer key, iter or partition, an xs:boolean condition.
func (v *verifier) need(n ralg.Plan, s *Schema, role, col string, k xqt.Kind) bool {
	if !v.have(n, s, role, col) {
		return false
	}
	if ci := s.Info(col); !s.Any && !ci.Is(k) {
		v.failf(n, "%s column %q has type %s, want %s", role, col, ci, k)
		return false
	}
	return true
}

// visit checks node number i, n, and records its results.
func (v *verifier) visit(i int, n ralg.Plan) {
	if v.err != nil {
		// after the first violation downstream schemas are meaningless
		v.schemas[i], v.props[i] = anySchema(), newColProps()
		return
	}
	s, cp := v.check(n)
	if s == nil {
		s = anySchema()
	}
	if cp == nil {
		cp = newColProps()
	}
	v.schemas[i], v.props[i] = s, cp
	if v.err == nil && !s.Any {
		v.crossCheck(n, v.oprops[i], s, cp)
	}
}

// crossCheck audits op, the optimizer's property inference for node n,
// against planck's schema and independently derived properties: a
// property claimed for a column that does not exist, or a key/const
// claim planck's maximal sound propagation cannot reproduce is a bug in
// one of the two inference engines.
func (v *verifier) crossCheck(n ralg.Plan, op opt.Props, s *Schema, cp *colProps) {
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
		s.add("pos", intInfo)
		s.add("item", ColInfo{})
		cp := newColProps()
		cp.key["pos"] = true
		return s, cp
	case *ralg.CollectionRoot:
		if x.Coll == "" {
			v.failf(n, "empty collection name")
		}
		s := newSchema()
		s.add("pos", intInfo)
		s.add("item", ColInfo{Node: true, Tag: xqt.KNode, TagKnown: true})
		cp := newColProps()
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
		v.need(n, in, "condition", x.Cond, xqt.KBool)
		return in, v.cprops(0)
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
		v.need(n, l, "left key", x.LKey, xqt.KInt)
		v.need(n, r, "right key", x.RKey, xqt.KInt)
		return l, v.cprops(0)
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
		return in, v.cprops(0)
	case *ralg.Aggr:
		return v.checkAggr(x)
	case *ralg.Step:
		return v.checkStep(x)
	case *ralg.ElemConstruct:
		return v.checkElem(x)
	case *ralg.RangeGen:
		in := v.sch(n, 0)
		v.need(n, in, "iter", x.Iter, xqt.KInt)
		v.have(n, in, "range lower bound", x.Lo)
		v.have(n, in, "range upper bound", x.Hi)
		s := newSchema()
		s.add("iter", intInfo)
		s.add("pos", intInfo)
		s.add("item", ColInfo{Tag: xqt.KInt, TagKnown: true})
		return s, nil
	case *ralg.CoverCheck:
		loop, in := v.sch(n, 0), v.sch(n, 1)
		v.need(n, loop, "loop iter", x.LoopIter, xqt.KInt)
		v.need(n, in, "partition", x.Part, xqt.KInt)
		if x.Fn == "" || x.Code == "" {
			v.failf(n, "empty function name or error code for error reporting")
		}
		return in, v.cprops(1)
	case *ralg.EBV:
		in := v.sch(n, 0)
		v.need(n, in, "partition", x.Part, xqt.KInt)
		v.have(n, in, "item", x.Item)
		if x.Pos != "" {
			v.need(n, in, "position", x.Pos, xqt.KInt)
		}
		s := newSchema()
		s.add(x.Part, intInfo)
		cp := newColProps()
		cp.key[x.Part] = true
		return s, cp
	case *ralg.CardCheck:
		in := v.sch(n, 0)
		v.need(n, in, "partition", x.Part, xqt.KInt)
		if x.Fn == "" || x.Code == "" {
			v.failf(n, "empty function name or error code for error reporting")
		}
		return in, v.cprops(0)
	}
	v.failf(n, "unknown operator %T", n)
	return nil, nil
}

func (v *verifier) rootSchema(node bool, tag xqt.Kind, constItem bool) (*Schema, *colProps) {
	s := newSchema()
	s.add("pos", intInfo)
	s.add("item", ColInfo{Node: node, Tag: tag, TagKnown: node})
	cp := newColProps()
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
		// a uniform column's tag holds of its rows — vacuously when it
		// has none
		var ci ColInfo
		if k, ok := c.Uniform(); ok {
			ci = ColInfo{Tag: k, TagKnown: true, Node: k == xqt.KNode || k == xqt.KAttr}
		}
		if !s.add(name, ci) {
			v.failf(n, "duplicate column %q in literal table", name)
			return s, cp
		}
		if tab.N <= 1 {
			cp.cnst[name] = true
		}
		if ci.Is(xqt.KInt) {
			uniq := true
			seen := make(map[int64]bool, len(c.I))
			for _, val := range c.I {
				if seen[val] {
					uniq = false
				}
				seen[val] = true
			}
			if uniq {
				cp.key[name] = true
			}
		}
	}
	return s, cp
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
	for _, c := range x.Key {
		if !has("key", c) {
			continue
		}
		col := t.Col(c)
		seen := make(map[xqt.Item]bool, t.N)
		ok := true
		for i := 0; i < t.N; i++ {
			k := col.At(i)
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
			if col.At(i) != col.At(0) {
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
		last := make(map[xqt.Item]int, t.N)
		for i := 0; i < t.N; i++ {
			k := gc.At(i)
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
	icp := v.cprops(0)
	cp := newColProps()
	for _, ref := range x.Cols {
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
	if !s.add(x.Col, ColInfo{Tag: x.It.K, TagKnown: true, Node: x.It.IsNode()}) {
		v.failf(x, "attached column %q already exists in %v", x.Col, in.Cols())
	}
	cp := v.cprops(0).clone()
	cp.cnst[x.Col] = true
	return s, cp
}

// funSpec describes one row-wise function: its argument count and its
// output's uniform tag when that is known.
type funSpec struct {
	name  string
	arity int
	tag   xqt.Kind
	known bool
}

var funSpecs = map[ralg.FunOp]funSpec{
	ralg.FunAdd:        {"add", 2, 0, false},
	ralg.FunSub:        {"sub", 2, 0, false},
	ralg.FunMul:        {"mul", 2, 0, false},
	ralg.FunDiv:        {"div", 2, 0, false},
	ralg.FunIDiv:       {"idiv", 2, 0, false},
	ralg.FunMod:        {"mod", 2, 0, false},
	ralg.FunNeg:        {"neg", 1, 0, false},
	ralg.FunEq:         {"eq", 2, xqt.KBool, true},
	ralg.FunNe:         {"ne", 2, xqt.KBool, true},
	ralg.FunLt:         {"lt", 2, xqt.KBool, true},
	ralg.FunLe:         {"le", 2, xqt.KBool, true},
	ralg.FunGt:         {"gt", 2, xqt.KBool, true},
	ralg.FunGe:         {"ge", 2, xqt.KBool, true},
	ralg.FunAtomize:    {"atomize", 1, 0, false},
	ralg.FunStringOf:   {"string", 1, xqt.KString, true},
	ralg.FunNumber:     {"number", 1, xqt.KDouble, true},
	ralg.FunContains:   {"contains", 2, xqt.KBool, true},
	ralg.FunStartsWith: {"starts-with", 2, xqt.KBool, true},
	ralg.FunConcat:     {"concat", 2, xqt.KString, true},
	ralg.FunNodeBefore: {"node-before", 2, xqt.KBool, true},
	ralg.FunNodeAfter:  {"node-after", 2, xqt.KBool, true},
	ralg.FunNodeIs:     {"node-is", 2, xqt.KBool, true},
	ralg.FunNameOf:     {"name", 1, xqt.KString, true},
	ralg.FunEbvAtom:    {"ebv-atom", 1, xqt.KBool, true},
	ralg.FunFloor:      {"floor", 1, xqt.KDouble, true},
	ralg.FunCeil:       {"ceiling", 1, xqt.KDouble, true},
	ralg.FunRound:      {"round", 1, xqt.KDouble, true},
	ralg.FunStrLen:     {"string-length", 1, xqt.KInt, true},
	ralg.FunLocalName:  {"local-name", 1, xqt.KString, true},
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
	}
	s := in.clone()
	if !s.add(x.Out, ColInfo{Tag: spec.tag, TagKnown: spec.known}) {
		v.failf(x, "output column %q already exists in %v", x.Out, in.Cols())
	}
	return s, v.cprops(0)
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
			v.need(x, in, "partition", x.Part, xqt.KInt)
		}
	}
	ip := v.iprops(0)
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
	if !s.add(x.Out, intInfo) {
		v.failf(x, "output column %q already exists in %v", x.Out, in.Cols())
	}
	cp := v.cprops(0)
	if x.Part == "" {
		// ranks over the whole table are a permutation of 1..N
		cp = cp.clone()
		cp.key[x.Out] = true
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
		if v.err == nil && !v.iprops(0).Covers(x.By[:x.RefinePrefix]) {
			v.failf(x, "refine prefix %d requires the input sorted on %v, which is not provable", x.RefinePrefix, x.By[:x.RefinePrefix])
		}
	}
	if in.Any {
		return anySchema(), nil
	}
	// a sort permutes rows: keys and constants survive
	return in, v.cprops(0)
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
	lcp, rcp := v.cprops(0), v.cprops(1)
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
	v.need(x, l, "left key", x.LKey, xqt.KInt)
	v.need(x, r, "right key", x.RKey, xqt.KInt)
	s, cp := v.checkJoinCols(x, x.LCols, x.RCols)
	if s == nil || s.Any || cp == nil {
		return s, cp
	}
	// key columns survive on the side whose partner key is unique
	lcp, rcp := v.cprops(0), v.cprops(1)
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
	v.need(x, l, "left iter", x.LIter, xqt.KInt)
	v.have(x, l, "left item", x.LItem)
	v.need(x, r, "right iter", x.RIter, xqt.KInt)
	v.have(x, r, "right item", x.RItem)
	if x.Out1 == "" || x.Out2 == "" || x.Out1 == x.Out2 {
		v.failf(x, "invalid output columns (%q, %q)", x.Out1, x.Out2)
	}
	s := newSchema()
	s.add(x.Out1, intInfo)
	s.add(x.Out2, intInfo)
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
			b := s.Info(c)
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
		cp = v.cprops(0)
	}
	return out, cp
}

func (v *verifier) checkAggr(x *ralg.Aggr) (*Schema, *colProps) {
	in := v.sch(x, 0)
	v.need(x, in, "partition", x.Part, xqt.KInt)
	if x.Op != ralg.AggCount {
		v.have(x, in, "aggregate argument", x.Arg)
	}
	if x.Out == x.Part {
		v.failf(x, "output column %q collides with the partition column", x.Out)
	}
	s := newSchema()
	s.add(x.Part, intInfo)
	ci := ColInfo{}
	if x.Op == ralg.AggCount {
		ci = intInfo
	}
	s.add(x.Out, ci)
	cp := newColProps()
	cp.key[x.Part] = true
	return s, cp
}

// checkStep validates a Step input: the iter column must be integer, the
// item column an item column, and — the staircase-join hard
// precondition — the input must be provably sorted on (item, iter); the
// executor refuses to run otherwise. A constant input iter column stays
// constant in the output. The tag is claimed unless an attribute can
// come out of a non-attribute step (self, ancestor-or-self or
// descendant-or-self under node() over a context that may hold one); a
// count-mode output is (iter, xs:integer), keyed by iter.
func (v *verifier) checkStep(n *ralg.Step) (*Schema, *colProps) {
	iterCol, itemCol := n.IterCol, n.ItemCol
	in := v.sch(n, 0)
	out := ColInfo{Node: true, Tag: xqt.KNode, TagKnown: true}
	switch {
	case n.Count:
		out = intInfo
	case n.Axis == scj.Attribute:
		out.Tag = xqt.KAttr
	case n.Test.Kind == scj.TestNode && (n.Axis == scj.Self || n.Axis == scj.AncestorOrSelf || n.Axis == scj.DescendantOrSelf):
		ctx := in.Info(itemCol)
		out.TagKnown = !in.Any && ctx.TagKnown && ctx.Tag == xqt.KNode
	}
	okIter := v.need(n, in, "iter", iterCol, xqt.KInt)
	okItem := v.have(n, in, "item", itemCol)
	if okIter && okItem && !in.Any {
		if !v.iprops(0).Covers([]string{itemCol, iterCol}) {
			v.failf(n, "input not provably sorted on (%s, %s): plan misses a sort", itemCol, iterCol)
		}
	}
	s := newSchema()
	s.add("iter", intInfo)
	s.add("item", out)
	cp := newColProps()
	if v.cprops(0).cnst[iterCol] {
		cp.cnst["iter"] = true // the output's iterations are a subset of the input's
	}
	if n.Count {
		cp.key["iter"] = true // one row per iteration
	}
	return s, cp
}

func (v *verifier) checkElem(x *ralg.ElemConstruct) (*Schema, *colProps) {
	v.need(x, v.sch(x, 0), "loop iter", "iter", xqt.KInt)
	in, open := 1, 0
	part := func(role string) {
		v.need(x, v.sch(x, in), role+" iter", "iter", xqt.KInt)
		v.have(x, v.sch(x, in), role+" item", "item")
		in++
	}
	for i, t := range x.Template {
		switch {
		case i > 0 && open == 0 || i == 0 && t.Kind != ralg.TokStart:
			v.failf(x, "template token %d is outside the root element", i)
		case t.Kind == ralg.TokStart && t.Tag == "":
			v.failf(x, "empty element tag")
		case t.Kind != ralg.TokStart && len(t.Attrs) > 0:
			v.failf(x, "attributes on template token %d, which is no element start", i)
		}
		for _, a := range t.Attrs {
			if a.Attr == "" {
				v.failf(x, "empty attribute name")
			}
			for range a.Parts {
				part(fmt.Sprintf("attribute %q part", a.Attr))
			}
		}
		switch t.Kind {
		case ralg.TokStart:
			open++
		case ralg.TokPart:
			part("content part")
		case ralg.TokEnd:
			open--
		}
	}
	if open != 0 || len(x.Template) == 0 {
		v.failf(x, "unbalanced template: %d of its elements open at its end", open)
	} else if in != len(x.Ins) {
		v.failf(x, "template reads %d inputs, the operator has %d", in, len(x.Ins))
	}
	s := newSchema()
	s.add("iter", intInfo)
	s.add("item", ColInfo{Node: true, Tag: xqt.KNode, TagKnown: true})
	cp := newColProps()
	if v.cprops(0).key["iter"] {
		cp.key["iter"] = true // one output row per loop row
	}
	return s, cp
}

// byRefViolation re-derives, forward and on its own, which output columns
// may hold trees a by-reference constructor (Op.Ref) built, which are
// serialized XML only the serializer can read: such a column may be carried —
// projected, attached to, ranked, sorted, made distinct, unioned,
// diffed, joined, checked, counted — and may reach the content of another
// by-reference constructor or a root that is only serialized, but no
// operator may read its nodes. It returns the first operator that does,
// or a mark on anything but an element constructor.
func byRefViolation(s ralg.Schedule, cfg Config) *PlanInvariantError {
	refs := make([][]string, len(s)) // per node, the columns that may hold by-reference trees
	for i, op := range s {
		in := func(k int) []string {
			if k < len(op.In) && op.In[k] >= 0 {
				return refs[op.In[k]]
			}
			return nil
		}
		var bad string
		reads := func(k int, cols ...string) {
			for _, c := range cols {
				if bad == "" && slices.Contains(in(k), c) {
					bad = fmt.Sprintf("input %d column %q", k, c)
				}
			}
		}
		var out []string
		keep := func(k int, except string) {
			for _, c := range in(k) {
				if c != except && !slices.Contains(out, c) {
					out = append(out, c)
				}
			}
		}
		rename := func(k int, cols []ralg.ColRef) {
			for _, r := range cols {
				if slices.Contains(in(k), r.Src) {
					out = append(out, r.Dst)
				}
			}
		}
		switch n := op.Plan.(type) {
		case *ralg.Project:
			rename(0, n.Cols)
		case *ralg.Attach:
			keep(0, n.Col)
		case *ralg.RowNum:
			keep(0, n.Out)
		case *ralg.Sort, *ralg.Distinct, *ralg.Diff, *ralg.CardCheck:
			keep(0, "")
		case *ralg.Union:
			for k := range op.In {
				keep(k, "")
			}
		case *ralg.CoverCheck:
			keep(1, "")
		case *ralg.HashJoin:
			rename(0, n.LCols)
			rename(1, n.RCols)
		case *ralg.Cross:
			rename(0, n.LCols)
			rename(1, n.RCols)
		case *ralg.Select:
			reads(0, n.Cond)
			keep(0, "")
		case *ralg.Fun:
			reads(0, n.Args...)
			keep(0, n.Out)
		case *ralg.ExistJoin:
			reads(0, n.LItem)
			reads(1, n.RItem)
		case *ralg.Aggr:
			if n.Op != ralg.AggCount { // a count reads no item
				reads(0, n.Arg)
			}
		case *ralg.EBV:
			reads(0, n.Item)
		case *ralg.Step:
			reads(0, n.ItemCol)
		case *ralg.RangeGen:
			reads(0, n.Lo, n.Hi)
		case *ralg.ElemConstruct:
			k := 1
			for _, t := range n.Template {
				for _, a := range t.Attrs {
					for range a.Parts {
						reads(k, "item") // atomized into the value
						k++
					}
				}
				if t.Kind == ralg.TokPart {
					if !op.Ref {
						reads(k, "item") // copied: a written tree has no rows to copy
					}
					k++
				}
			}
			if op.Ref {
				out = []string{"item"}
			}
		default:
			for k := range op.In {
				reads(k, in(k)...)
			}
		}
		if _, ctor := op.Plan.(*ralg.ElemConstruct); op.Ref && !ctor {
			return &PlanInvariantError{Op: op.Plan.Name(), Msg: "marked by-reference, but only an element constructor builds by reference"}
		}
		if bad != "" {
			return &PlanInvariantError{Op: op.Plan.Name(), Msg: bad + " may hold trees a by-reference constructor built, which only the serializer may read"}
		}
		refs[i] = out
	}
	if root := s[len(s)-1]; !cfg.Serialized && len(refs[len(s)-1]) > 0 {
		return &PlanInvariantError{Op: root.Plan.Name(), Msg: fmt.Sprintf("columns %v may hold by-reference trees, but the root is not only serialized (a parameter initializer's is bound)", refs[len(s)-1])}
	}
	return nil
}
