package ralg

import (
	"fmt"
	"slices"

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
	// Key and Const name duplicate-free columns and columns holding a
	// single constant value.
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
// Step operators evaluate one shard at a time.
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
	Col string
	It  xqt.Item
}

// Name implements Plan.
func (*Attach) Name() string { return "attach" }

// AttachInt attaches a constant xs:integer column.
func AttachInt(in Plan, col string, v int64) *Attach { return AttachItem(in, col, xqt.Int(v)) }

// AttachItem attaches a constant column.
func AttachItem(in Plan, col string, it xqt.Item) *Attach {
	return &Attach{unary: unary{In: in}, Col: col, It: it}
}

// Select keeps the rows whose xs:boolean column Cond is true.
type Select struct {
	unary
	Cond string
}

// Name implements Plan.
func (*Select) Name() string { return "select" }

// FunOp enumerates row-wise functions.
type FunOp uint8

// Row-wise functions; a comparison yields an xs:boolean column.
const (
	FunAdd FunOp = iota
	FunSub
	FunMul
	FunDiv
	FunIDiv
	FunMod
	FunNeg
	FunEq // value comparison -> xs:boolean
	FunNe
	FunLt
	FunLe
	FunGt
	FunGe
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
// right rows in right order). Keys that run b, b+1, … are joined by
// position (the paper's autoincrement keys), any others by hashing.
type HashJoin struct {
	binary
	LKey, RKey string
	LCols      []ColRef
	RCols      []ColRef
}

// Name implements Plan.
func (*HashJoin) Name() string { return "hashjoin" }

// NewHashJoin constructs an equi-join.
func NewHashJoin(l, r Plan, lkey, rkey string, lcols, rcols []ColRef) *HashJoin {
	return &HashJoin{binary: binary{L: l, R: r}, LKey: lkey, RKey: rkey, LCols: lcols, RCols: rcols}
}

// ExistJoin implements XQuery's general comparisons in join position with
// existential semantics (§4.2): it joins (iter1, item1) with
// (iter2, item2) on item1 Cmp item2 and emits the distinct
// (iter1, iter2) pairs, in [iter1, iter2] order. In Count mode Out2
// holds, per iter1 with any partner, the number of distinct iter2
// partners instead: one row per iter1, ascending.
type ExistJoin struct {
	binary
	Cmp        xqt.CmpOp
	LIter      string
	LItem      string
	RIter      string
	RItem      string
	Out1, Out2 string
	Count      bool
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
// in R's RKey column (the paper's \ operator: the complement of an
// iteration set in its loop, and loop densification).
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

// Step evaluates an XPath location step with (loop-lifted) staircase join,
// or, on the attribute axis, from the attribute table: a name test or *
// selects attributes by name, node() all of them, any other kind test
// none. The input must be sorted so that node items appear in document
// order with iterations clustered per node — i.e. sorted on (ItemCol,
// IterCol). The output (iter, item) is likewise in (document order, iter)
// order and carries the grpord([item], iter) property. In Count mode the
// output holds, per iteration with any result, the number of result
// nodes as an xs:integer item instead: one row per iter, ascending.
type Step struct {
	unary
	Axis    scj.Axis
	Test    scj.Test
	Variant scj.Variant
	IterCol string
	ItemCol string
	Count   bool
}

// Name implements Plan.
func (s *Step) Name() string { return "step(" + s.Axis.String() + ")" }

// AttrSpec is one attribute of a constructed element: its name and how
// many inputs compute its value per iteration. The items of each part
// are joined with single spaces; the parts are then concatenated
// directly (mirroring XQuery attribute value templates like n="a{$x}b").
type AttrSpec struct {
	Attr  string
	Parts int
}

// TokKind tells the tokens of an ElemConstruct template apart.
type TokKind uint8

const (
	TokStart TokKind = iota // an element start: Tag and Attrs
	TokPart                 // a content part
	TokEnd                  // the end of the innermost open element
)

// CtorTok is one token of an ElemConstruct template.
type CtorTok struct {
	Kind  TokKind
	Tag   string
	Attrs []AttrSpec
}

// ElemConstruct builds one new element tree per iteration of the loop
// (input 0) in the query's transient container: a nest of direct
// constructors, listed by Template in preorder as a root start, content
// parts and nested starts, and balanced ends. Inputs 1.. are read in
// token order: a start's attribute value parts, a content part's
// iter|pos|item sequence sorted on [iter,pos]. Atoms adjacent in an
// element's content join into one text node, those of one part with a
// space between them, adjacent parts' directly (XQuery §3.7.1.3); a
// node, a start or an end ends the run. Output is (iter, item): the
// roots, in loop order — as XML in the container's slab, one KindXML
// row per root, when the trees are only serialized (Op.Ref).
type ElemConstruct struct {
	Ins      []Plan
	Template []CtorTok
}

// Name implements Plan.
func (*ElemConstruct) Name() string { return "elem" }

// Inputs implements Plan.
func (e *ElemConstruct) Inputs() []Plan { return e.Ins }

// SetInput implements Plan.
func (e *ElemConstruct) SetInput(i int, p Plan) { e.Ins[i] = p }

// RangeGen expands each input row into the integer sequence Lo..Hi:
// output columns are (iter, pos, item), sorted by the input's iter
// order.
type RangeGen struct {
	unary
	Iter, Lo, Hi string
}

// Name implements Plan.
func (*RangeGen) Name() string { return "rangegen" }

// CoverCheck raises Code when some iteration of Loop (input 0) has no
// row in In (input 1): fn:one-or-more (FORG0004) and fn:exactly-one
// (FORG0005) demand at least one item per call. It passes In through.
type CoverCheck struct {
	binary   // L = loop, R = in
	LoopIter string
	Part     string
	Fn, Code string
}

// Name implements Plan.
func (*CoverCheck) Name() string { return "covercheck" }

// EBV emits, as a one-column (Part) table, the groups of (Part, Item)
// rows whose effective boolean value is true: present nodes make the
// group true; a singleton atom contributes its boolean value;
// multi-item atomic groups raise XQuery's FORG0006. With Pos set it is
// the predicate truth value (XQuery 1.0 §3.2.2): a group that is one
// numeric item is true when the item equals the group's Pos value.
type EBV struct {
	unary
	Part string
	Item string
	Pos  string
}

// Name implements Plan.
func (*EBV) Name() string { return "ebv" }

// CardCheck raises Code when a Part group holds more than one row —
// XPTY0004 for an operand that must be one item, FORG0003 for
// fn:zero-or-one, FORG0005 for fn:exactly-one (whose "at least one"
// half is CoverCheck's) — and passes its input through.
type CardCheck struct {
	unary
	Part string
	// Fn names the operator or builtin for error messages.
	Fn, Code string
}

// Name implements Plan.
func (*CardCheck) Name() string { return "cardcheck" }

// Schedule is a plan DAG numbered once: the straight-line program the
// executor runs, every node once, inputs before their consumers, the
// root last.
type Schedule []Op

// Op is one numbered node: its plan and its inputs' numbers, -1 for a
// nil input (which is not visited). Ref marks an ElemConstruct that
// builds by reference, writing its trees as XML (MarkByRef).
type Op struct {
	Plan Plan
	In   []int
	Ref  bool
}

// NewSchedule numbers the DAG rooted at p depth-first, inputs first, into
// 64 presized slots (XMark's median is 54), each In cut from a shared array.
func NewSchedule(p Plan) Schedule {
	s, num, in := make(Schedule, 0, 64), make(map[Plan]int, 64), make([]int, 0, 128)
	num[nil] = -1
	var rec func(Plan) int
	rec = func(n Plan) int {
		if i, ok := num[n]; ok {
			return i
		}
		ins, lo := n.Inputs(), len(in)
		in = append(in, make([]int, len(ins))...)
		for k, c := range ins {
			i := rec(c) // before in is read: rec may regrow it
			in[lo+k] = i
		}
		num[n] = len(s)
		s = append(s, Op{Plan: n, In: in[lo : lo+len(ins) : lo+len(ins)]})
		return num[n]
	}
	rec(p)
	return s
}

// CountOps numbers the DAG rooted at p and counts it; kept for bench/.
func CountOps(p Plan) (ops, joins int) { return NewSchedule(p).CountOps() }

// CountOps returns the number of operators and of joins among them (§4.1:
// "86 relational algebra operators on average, of which 9 are joins").
func (s Schedule) CountOps() (ops, joins int) {
	for _, op := range s {
		switch op.Plan.(type) {
		case *HashJoin, *ExistJoin, *Cross, *Diff:
			joins++
		}
	}
	return len(s), joins
}

// MarkByRef decides, for every ElemConstruct of the main plan s, whether
// it builds by reference: it writes each tree as serialized XML, one
// store.KindXML row, and takes its content by reading it, where a copying
// constructor builds rows and copies the content's subtrees. That holds when the
// constructed nodes can reach only the root, whose items are only
// serialized, the content of another by-reference constructor, or
// operators that move items without reading node structure: Project,
// Attach, RowNum, Sort, Distinct, Union and Diff (which order nodes by
// identity), joins, CardCheck and CoverCheck that carry the column, and
// fn:count's Aggr, which only counts rows. Every other reader navigates
// or atomizes — a Step context, an argument of Fun, of any other Aggr,
// of Select, EBV, ExistJoin or RangeGen, an
// attribute value part, the content of a copying constructor — so the
// constructor copies. One pass from the root back: read[i] lists the
// output columns of node i whose nodes some consumer reads.
func (s Schedule) MarkByRef() {
	read := make([][]string, len(s))
	for i := len(s) - 1; i >= 0; i-- {
		op, d := &s[i], read[i]
		need := func(k int, col string) {
			if j := op.In[k]; j >= 0 && col != "" && !slices.Contains(read[j], col) {
				read[j] = append(read[j], col)
			}
		}
		pass := func(k int, except string) {
			for _, c := range d {
				if c != except {
					need(k, c)
				}
			}
		}
		refs := func(k int, cols []ColRef) {
			for _, r := range cols {
				if slices.Contains(d, r.Dst) {
					need(k, r.Src)
				}
			}
		}
		switch n := op.Plan.(type) {
		case *Project:
			refs(0, n.Cols)
		case *Attach:
			pass(0, n.Col)
		case *RowNum:
			pass(0, n.Out)
		case *Sort, *Distinct, *Diff, *CardCheck:
			pass(0, "")
		case *Union:
			for k := range op.In {
				pass(k, "")
			}
		case *CoverCheck:
			pass(1, "")
		case *HashJoin:
			refs(0, n.LCols)
			refs(1, n.RCols)
		case *Cross:
			refs(0, n.LCols)
			refs(1, n.RCols)
		case *Select:
			pass(0, "")
			need(0, n.Cond)
		case *Fun:
			pass(0, n.Out)
			for _, a := range n.Args {
				need(0, a)
			}
		case *ExistJoin:
			need(0, n.LItem)
			need(1, n.RItem)
		case *Aggr:
			if n.Op != AggCount {
				need(0, n.Arg)
			}
		case *EBV:
			need(0, n.Item)
		case *Step:
			need(0, n.ItemCol)
		case *RangeGen:
			need(0, n.Lo)
			need(0, n.Hi)
		case *ElemConstruct:
			op.Ref = !slices.Contains(d, "item")
			k := 1
			for _, t := range n.Template {
				for _, a := range t.Attrs {
					for range a.Parts {
						need(k, "item")
						k++
					}
				}
				if t.Kind == TokPart {
					if !op.Ref {
						need(k, "item")
					}
					k++
				}
			}
		}
	}
}
