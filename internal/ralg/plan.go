package ralg

import (
	"fmt"

	"mxq/internal/scj"
	"mxq/internal/xqt"
)

// Plan is a node of a physical relational algebra plan DAG. Plans are
// produced by the XQuery compiler (internal/xqc), rewritten by the
// peephole optimizer (internal/opt), and evaluated by Exec. Shared
// sub-plans are evaluated once (intermediate results are materialized and
// re-used, as in MonetDB).
type Plan interface {
	// Inputs returns the child plans.
	Inputs() []Plan
	// SetInput replaces the i-th child (used by the optimizer).
	SetInput(i int, p Plan)
	// Name returns the operator name for plan dumps and statistics.
	Name() string
}

type nullary struct{}

func (nullary) Inputs() []Plan     { return nil }
func (nullary) SetInput(int, Plan) { panic("ralg: nullary operator has no inputs") }

type unary struct{ In Plan }

func (u *unary) Inputs() []Plan { return []Plan{u.In} }
func (u *unary) SetInput(i int, p Plan) {
	if i != 0 {
		panic("ralg: unary operator input index")
	}
	u.In = p
}

type binary struct{ L, R Plan }

func (b *binary) Inputs() []Plan { return []Plan{b.L, b.R} }
func (b *binary) SetInput(i int, p Plan) {
	switch i {
	case 0:
		b.L = p
	case 1:
		b.R = p
	default:
		panic("ralg: binary operator input index")
	}
}

// ColRef maps a source column to a (possibly renamed) destination column.
type ColRef struct{ Src, Dst string }

// Refs is a convenience constructor: Refs("a", "b->c") produces
// [{a,a},{b,c}].
func Refs(specs ...string) []ColRef {
	out := make([]ColRef, len(specs))
	for i, s := range specs {
		for j := 0; j+1 < len(s); j++ {
			if s[j] == '-' && s[j+1] == '>' {
				out[i] = ColRef{Src: s[:j], Dst: s[j+2:]}
				break
			}
		}
		if out[i].Src == "" {
			out[i] = ColRef{Src: s, Dst: s}
		}
	}
	return out
}

// Lit is a literal table leaf.
type Lit struct {
	nullary
	Tab *Table
}

// Name implements Plan.
func (*Lit) Name() string { return "lit" }

// GrpSpec declares one group ordering of a LitDecl table: rows with
// equal Group column values are ordered on Cols — the paper's
// grpord([c…],g) property; groups need not be consecutive.
type GrpSpec struct {
	Cols  []string
	Group string
}

// LitDecl is a literal table leaf carrying declared §4.1 column
// properties. The optimizer's inference takes the declarations at face
// value and the static plan verifier (internal/planck) checks every
// declaration against the table's actual rows, so a LitDecl can stand
// in for an arbitrary subplan whose inferred properties are known —
// which is what translation validation (internal/optcheck) needs when
// it substitutes synthesized micro-inputs for the inputs of a rewrite
// witness: a plain Lit would lose ordering claims over item columns.
type LitDecl struct {
	nullary
	Tab *Table
	// Ords are declared lexicographic orderings of the whole table.
	Ords [][]string
	// Grps are declared group orderings.
	Grps []GrpSpec
	// Dense, Key and Const name columns holding the sequence 1..N, a
	// duplicate-free column, and a single constant value respectively.
	Dense []string
	Key   []string
	Const []string
}

// Name implements Plan.
func (*LitDecl) Name() string { return "litdecl" }

// DocRoot produces the single-row table (pos=1, item=root node) of a
// loaded document.
type DocRoot struct {
	nullary
	Doc string
}

// Name implements Plan.
func (*DocRoot) Name() string { return "docroot" }

// ContextRoot produces the single-row table (pos=1, item=root node) of
// the context document of absolute paths. Unlike DocRoot, the document
// is not named in the plan: it is resolved from Exec.ContextDoc at
// execution time, so one cached plan serves any context document (and
// SetContextDocument can never be shadowed by a stale cache entry).
type ContextRoot struct {
	nullary
}

// Name implements Plan.
func (*ContextRoot) Name() string { return "ctxroot" }

// ParamTable is the parameterized leaf of a prepared query: it produces
// the (pos, item) table of the external variable binding named Name,
// resolved from Exec.Bindings at execution time. The compiler crosses
// it with the loop relation of the referencing scope (a single
// iteration at the query root, replicated under loop-lifting), so one
// physical plan serves every binding.
type ParamTable struct {
	nullary
	Var string
}

// Name implements Plan.
func (p *ParamTable) Name() string { return "param($" + p.Var + ")" }

// CollectionRoot produces the (pos, item) table of a sharded collection's
// document root nodes, in collection document order: one row per
// document, pos = 1..N, items ordered by (shard container id, pre). Each
// shard contributes a contiguous run of context rows, which downstream
// Step operators evaluate per shard under the worker pool.
type CollectionRoot struct {
	nullary
	Coll string
}

// Name implements Plan.
func (*CollectionRoot) Name() string { return "collroot" }

// Fail raises a dynamic XQuery error when executed. The compiler plants
// it for expressions whose static form is known to be unsupported — e.g.
// a doc() argument that is not constant-foldable — turning what was a
// compile-time rejection into the runtime error the spec prescribes.
type Fail struct {
	nullary
	// Code is the W3C error code the failure raises; Msg is the message
	// text (without the "xquery error" prefix).
	Code string
	Msg  string
}

// Name implements Plan.
func (*Fail) Name() string { return "fail" }

// Project returns the listed columns, renamed per the refs.
type Project struct {
	unary
	Cols []ColRef
}

// Name implements Plan.
func (*Project) Name() string { return "project" }

// NewProject constructs a projection.
func NewProject(in Plan, cols ...string) *Project {
	return &Project{unary: unary{In: in}, Cols: Refs(cols...)}
}

// Attach appends a constant column (the paper's const-property columns).
type Attach struct {
	unary
	Col  string
	Kind ColKind
	I    int64
	B    bool
	It   xqt.Item
}

// Name implements Plan.
func (*Attach) Name() string { return "attach" }

// AttachInt attaches a constant integer column.
func AttachInt(in Plan, col string, v int64) *Attach {
	return &Attach{unary: unary{In: in}, Col: col, Kind: KInt, I: v}
}

// AttachItem attaches a constant item column.
func AttachItem(in Plan, col string, it xqt.Item) *Attach {
	return &Attach{unary: unary{In: in}, Col: col, Kind: KItem, It: it}
}

// Select keeps the rows whose boolean column Cond is true.
type Select struct {
	unary
	Cond string
	// Neg selects the complement (the paper's σ¬).
	Neg bool
}

// Name implements Plan.
func (*Select) Name() string { return "select" }

// FunOp enumerates row-wise functions.
type FunOp uint8

// Row-wise functions over item columns (unless noted otherwise).
const (
	FunAdd FunOp = iota
	FunSub
	FunMul
	FunDiv
	FunIDiv
	FunMod
	FunNeg
	FunEq // value comparison -> bool
	FunNe
	FunLt
	FunLe
	FunGt
	FunGe
	FunAnd // bool x bool -> bool
	FunOr
	FunNot
	FunAtomize    // node -> untyped atomic (string value); atoms pass through
	FunStringOf   // atom/node -> xs:string
	FunNumber     // -> xs:double
	FunContains   // string x string -> bool
	FunStartsWith // string x string -> bool
	FunConcat     // string x string -> string
	FunNodeBefore // node << node -> bool
	FunNodeAfter  // node >> node -> bool
	FunNodeIs     // node is node -> bool
	FunNameOf     // node -> element/attribute name as string
	FunIsNumeric  // item -> bool (used by dynamic positional predicates)
	FunEbvAtom    // singleton atom -> effective boolean value
	FunFloor      // -> xs:double
	FunCeil       // -> xs:double
	FunRound      // -> xs:double (halves round toward positive infinity)
	FunStrLen     // -> xs:integer (characters, not bytes)
	FunLocalName  // node -> local part of the name (prefix stripped)
)

// Fun computes Out = Op(Args...) row-wise.
type Fun struct {
	unary
	Op   FunOp
	Args []string
	Out  string
}

// Name implements Plan.
func (f *Fun) Name() string { return fmt.Sprintf("fun(%d)", f.Op) }

// NewFun constructs a row-wise function node.
func NewFun(in Plan, op FunOp, out string, args ...string) *Fun {
	return &Fun{unary: unary{In: in}, Op: op, Args: args, Out: out}
}

// RankMode selects the implementation of RowNum, set by the optimizer.
type RankMode uint8

// RowNum implementations.
const (
	// RankSort sorts a row permutation to assign ranks (the default).
	RankSort RankMode = iota
	// RankStream numbers rows in arrival order per group with a hash
	// table of counters; valid when grpord(OrderBy, Part) holds (§4.1).
	RankStream
	// RankSeq assigns 1..N in arrival order; valid when the input is
	// already sorted on (Part, OrderBy...).
	RankSeq
)

// RowNum is the ρ operator: it extends the input with a column Out that
// numbers tuples 1.. within each Part group (the whole table if Part is
// empty) respecting the order given by OrderBy. It embodies SQL:1999's
// DENSE_RANK() OVER (PARTITION BY part ORDER BY orderBy...) for the
// key-unique inputs of our plans. Row order is unchanged.
type RowNum struct {
	unary
	Out     string
	OrderBy []string
	Desc    []bool
	Part    string // "" = single group
	Mode    RankMode
}

// Name implements Plan.
func (*RowNum) Name() string { return "rownum" }

// NewRowNum constructs a ρ operator.
func NewRowNum(in Plan, out string, orderBy []string, part string) *RowNum {
	return &RowNum{unary: unary{In: in}, Out: out, OrderBy: orderBy, Part: part}
}

// Sort orders the table by the given columns (stable). RefinePrefix is
// set by the optimizer when the input is known to be sorted on a prefix
// of By: only runs of equal prefix values are re-sorted.
type Sort struct {
	unary
	By           []string
	Desc         []bool
	RefinePrefix int
}

// Name implements Plan.
func (*Sort) Name() string { return "sort" }

// NewSort constructs a sort.
func NewSort(in Plan, by ...string) *Sort { return &Sort{unary: unary{In: in}, By: by} }

// HashJoin is an equi-join on integer key columns. Output rows are in
// left-major order (the left order is preserved; ties enumerate matching
// right rows in right order). Pos/PosLeft are set by the optimizer when a
// dense ascending key column allows positional lookup instead of hashing
// (the paper's positional join on autoincrement keys): Pos looks rows up
// in the right input; PosLeft probes the left input positionally, which
// preserves left-major order when the left key is unique and the right
// input is sorted on its key.
type HashJoin struct {
	binary
	LKey, RKey string
	LCols      []ColRef
	RCols      []ColRef
	Pos        bool
	PosLeft    bool
}

// Name implements Plan.
func (j *HashJoin) Name() string {
	if j.Pos || j.PosLeft {
		return "posjoin"
	}
	return "hashjoin"
}

// NewHashJoin constructs an equi-join.
func NewHashJoin(l, r Plan, lkey, rkey string, lcols, rcols []ColRef) *HashJoin {
	return &HashJoin{binary: binary{L: l, R: r}, LKey: lkey, RKey: rkey, LCols: lcols, RCols: rcols}
}

// ExistJoin implements XQuery's general comparisons in join position with
// existential semantics (§4.2): it joins (iter1, item1) with
// (iter2, item2) on item1 Cmp item2 and emits the distinct
// (iter1, iter2) pairs, in [iter1, iter2] order.
type ExistJoin struct {
	binary
	Cmp        xqt.CmpOp
	LIter      string
	LItem      string
	RIter      string
	RItem      string
	Out1, Out2 string
}

// Name implements Plan.
func (*ExistJoin) Name() string { return "existjoin" }

// Cross is the Cartesian product, left-major. Column sets are merged; the
// caller renames via Project to avoid clashes.
type Cross struct {
	binary
	LCols []ColRef
	RCols []ColRef
}

// Name implements Plan.
func (*Cross) Name() string { return "cross" }

// Union is disjoint union (append) of inputs with identical schemas.
type Union struct {
	Ins []Plan
}

// Name implements Plan.
func (*Union) Name() string { return "union" }

// Inputs implements Plan.
func (u *Union) Inputs() []Plan { return u.Ins }

// SetInput implements Plan.
func (u *Union) SetInput(i int, p Plan) { u.Ins[i] = p }

// Diff is the anti-semijoin: rows of L whose integer LKey does not occur
// in R's RKey column (the paper's \ operator as used for loop
// densification).
type Diff struct {
	binary
	LKey, RKey string
}

// Name implements Plan.
func (*Diff) Name() string { return "diff" }

// Distinct removes duplicate rows with respect to the By columns, keeping
// the first occurrence (input order preserved).
type Distinct struct {
	unary
	By []string
	// Merge is set by the optimizer when the input is sorted on By,
	// allowing consecutive-duplicate elimination.
	Merge bool
}

// Name implements Plan.
func (*Distinct) Name() string { return "distinct" }

// AggOp enumerates grouped aggregation functions.
type AggOp uint8

// Aggregation functions.
const (
	AggCount AggOp = iota
	AggSum
	AggMin
	AggMax
	AggAvg
)

// Aggr groups the input by the integer Part column and computes one
// aggregate row (part, out) per group, in group-first-appearance order.
type Aggr struct {
	unary
	Part string
	Op   AggOp
	Arg  string // ignored for AggCount
	Out  string
}

// Name implements Plan.
func (*Aggr) Name() string { return "aggr" }

// Step evaluates an XPath location step with (loop-lifted) staircase join.
// The input must be sorted so that node items appear in document order
// with iterations clustered per node — i.e. sorted on (ItemCol, IterCol).
// The output (OutIter, OutItem) is likewise in (document order, iter)
// order and carries the grpord([item], iter) property.
type Step struct {
	unary
	Axis    scj.Axis
	Test    scj.Test
	Variant scj.Variant
	IterCol string
	ItemCol string
}

// Name implements Plan.
func (s *Step) Name() string { return "step(" + s.Axis.String() + ")" }

// AttrStep evaluates the attribute axis: for each (iter, element) input
// row it emits (iter, attribute-node) rows for the matching attributes.
// Ordering mirrors Step.
type AttrStep struct {
	unary
	NameTest string // "" = all attributes
	IterCol  string
	ItemCol  string
}

// Name implements Plan.
func (*AttrStep) Name() string { return "attrstep" }

// AttrSpec is one attribute of a constructed element: its name and the
// plans computing its value per iteration. The items of each part are
// joined with single spaces; the parts are then concatenated directly
// (mirroring XQuery attribute value templates like n="a{$x}b").
type AttrSpec struct {
	Attr  string
	Parts []Plan
}

// ElemConstruct builds one new element node per iteration of Loop (input
// 0) in the query's transient container. Content (input 1) supplies the
// iter|pos|item content sequence (sorted on [iter,pos]); additional
// inputs 2.. are the attribute value part plans, in order. Output is
// (iter, item).
type ElemConstruct struct {
	Loop    Plan
	Content Plan
	Attrs   []AttrSpec
	Tag     string
}

// Name implements Plan.
func (*ElemConstruct) Name() string { return "elem" }

// Inputs implements Plan.
func (e *ElemConstruct) Inputs() []Plan {
	in := []Plan{e.Loop, e.Content}
	for _, a := range e.Attrs {
		in = append(in, a.Parts...)
	}
	return in
}

// SetInput implements Plan.
func (e *ElemConstruct) SetInput(i int, p Plan) {
	switch {
	case i == 0:
		e.Loop = p
	case i == 1:
		e.Content = p
	default:
		i -= 2
		for a := range e.Attrs {
			if i < len(e.Attrs[a].Parts) {
				e.Attrs[a].Parts[i] = p
				return
			}
			i -= len(e.Attrs[a].Parts)
		}
		panic("ralg: ElemConstruct input index out of range")
	}
}

// ColToItem converts an integer or boolean column into an item column
// (xs:integer / xs:boolean items).
type ColToItem struct {
	unary
	Src, Dst string
}

// Name implements Plan.
func (*ColToItem) Name() string { return "coltoitem" }

// RangeGen expands each input row into the integer sequence Lo..Hi (item
// columns holding integers): output columns are (iter, pos, item), sorted
// by the input's iter order.
type RangeGen struct {
	unary
	Iter, Lo, Hi string
}

// Name implements Plan.
func (*RangeGen) Name() string { return "rangegen" }

// CoverCheck raises XQuery's FORG0004/FORG0005 when some iteration of
// Loop (input 0) has no row in In (input 1): fn:one-or-more and
// fn:exactly-one demand at least one item per call. It passes In through.
type CoverCheck struct {
	binary   // L = loop, R = in
	LoopIter string
	Part     string
	Fn       string
}

// Name implements Plan.
func (*CoverCheck) Name() string { return "covercheck" }

// EBV computes the effective boolean value of each iteration's group of
// (Part, Item) rows: present nodes make the group true; a singleton atom
// contributes its boolean value; multi-item atomic groups raise XQuery's
// FORG0006. Output is (Part, Out bool) for the groups present in the
// input (absent groups are false and densified by the compiler).
type EBV struct {
	unary
	Part string
	Item string
	Out  string
}

// Name implements Plan.
func (*EBV) Name() string { return "ebv" }

// CardCheck validates the cardinality of each iteration group, raising
// XQuery's dynamic errors for fn:zero-or-one, fn:exactly-one and
// fn:one-or-more. It passes its input through unchanged. Exactly-one's
// "at least one" half is checked by the compiler against the loop
// relation.
type CardCheck struct {
	unary
	Part string
	// AtMostOne rejects groups with more than one row.
	AtMostOne bool
	// Fn names the builtin for error messages.
	Fn string
}

// Name implements Plan.
func (*CardCheck) Name() string { return "cardcheck" }

// Walk visits the plan DAG once per node in topological (inputs-first)
// order.
func Walk(p Plan, visit func(Plan)) {
	seen := make(map[Plan]bool)
	var rec func(Plan)
	rec = func(n Plan) {
		if n == nil || seen[n] {
			return
		}
		seen[n] = true
		for _, in := range n.Inputs() {
			rec(in)
		}
		visit(n)
	}
	rec(p)
}

// CountOps returns the number of distinct operators in the plan DAG and
// the number of join operators among them (used for the paper's §4.1 plan
// statistics: "86 relational algebra operators on average, of which 9 are
// joins").
func CountOps(p Plan) (ops, joins int) {
	Walk(p, func(n Plan) {
		ops++
		switch n.(type) {
		case *HashJoin, *ExistJoin, *Cross, *Diff:
			joins++
		}
	})
	return ops, joins
}
