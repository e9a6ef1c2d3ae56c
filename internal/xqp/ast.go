// Package xqp implements the XQuery parser of the engine: a hand-written
// lexer and recursive-descent parser covering the language subset the
// paper's system exercises — FLWOR expressions (for/at/let/where/order
// by/return), quantified and conditional expressions, full path syntax
// with all axes and predicates, general/value/node comparisons,
// arithmetic, direct element constructors with enclosed expressions, and
// user-defined functions declared in the prolog.
package xqp

import "fmt"

// Expr is an XQuery expression AST node.
type Expr interface{ exprNode() }

// Module is a parsed query: prolog function and variable declarations
// plus the body.
type Module struct {
	Funcs []*FuncDecl
	Vars  []*VarDecl
	Body  Expr
}

// FuncDecl is a prolog user-defined function declaration.
type FuncDecl struct {
	Name   string
	Params []string
	Body   Expr
}

// VarDecl is a prolog variable declaration:
//
//	declare variable $x := Expr;           (global let)
//	declare variable $x external;          (required query parameter)
//	declare variable $x external := Expr;  (parameter with default)
//
// External declarations are the parameters of a prepared query: their
// values are supplied as bindings at execution time, so one compiled
// plan serves every binding. Init is nil for an external declaration
// without a default.
type VarDecl struct {
	Name     string
	External bool
	Init     Expr
}

// LitKind discriminates literal kinds.
type LitKind uint8

// Literal kinds.
const (
	LitInt LitKind = iota
	LitDouble
	LitString
)

// Literal is a numeric or string literal.
type Literal struct {
	Kind LitKind
	I    int64
	F    float64
	S    string
}

// VarRef references a bound variable ($name).
type VarRef struct{ Name string }

// ContextItem is the "." expression.
type ContextItem struct{}

// Seq is the comma operator: sequence concatenation.
type Seq struct{ Items []Expr }

// EmptySeq is the "()" expression.
type EmptySeq struct{}

// ClauseKind discriminates FLWOR clauses.
type ClauseKind uint8

// FLWOR clause kinds.
const (
	ClauseFor ClauseKind = iota
	ClauseLet
	ClauseWhere
	ClauseOrder
)

// Clause is one FLWOR clause.
type Clause struct {
	Kind ClauseKind
	Var  string // for/let variable
	Pos  string // positional variable of "for $v at $p" ("" if absent)
	Expr Expr   // binding sequence / let value / where condition
	Keys []OrderKey
}

// OrderKey is one "order by" key.
type OrderKey struct {
	Expr Expr
	Desc bool
}

// FLWOR is a for/let/where/order-by/return expression.
type FLWOR struct {
	Clauses []Clause
	Return  Expr
}

// Quantified is a some/every expression.
type Quantified struct {
	Every     bool
	Vars      []string
	Seqs      []Expr
	Satisfies Expr
}

// If is a conditional expression.
type If struct{ Cond, Then, Else Expr }

// BinOp enumerates binary operators.
type BinOp uint8

// Binary operators.
const (
	OpOr BinOp = iota
	OpAnd
	// general comparisons (existential)
	OpGenEq
	OpGenNe
	OpGenLt
	OpGenLe
	OpGenGt
	OpGenGe
	// value comparisons
	OpValEq
	OpValNe
	OpValLt
	OpValLe
	OpValGt
	OpValGe
	// node comparisons
	OpIs
	OpBefore // <<
	OpAfter  // >>
	// arithmetic
	OpAdd
	OpSub
	OpMul
	OpDiv
	OpIDiv
	OpMod
	// sequences
	OpRange // to
	OpUnion // |
)

func (op BinOp) String() string {
	names := map[BinOp]string{
		OpOr: "or", OpAnd: "and", OpGenEq: "=", OpGenNe: "!=", OpGenLt: "<",
		OpGenLe: "<=", OpGenGt: ">", OpGenGe: ">=", OpValEq: "eq", OpValNe: "ne",
		OpValLt: "lt", OpValLe: "le", OpValGt: "gt", OpValGe: "ge", OpIs: "is",
		OpBefore: "<<", OpAfter: ">>", OpAdd: "+", OpSub: "-", OpMul: "*",
		OpDiv: "div", OpIDiv: "idiv", OpMod: "mod", OpRange: "to", OpUnion: "|",
	}
	if s, ok := names[op]; ok {
		return s
	}
	return fmt.Sprintf("op(%d)", uint8(op))
}

// Binary is a binary operator expression.
type Binary struct {
	Op   BinOp
	L, R Expr
}

// Unary is arithmetic negation.
type Unary struct{ X Expr }

// Axis enumerates the XPath axes of the surface syntax (including the
// attribute axis, which the relational layer treats separately).
type Axis uint8

// XPath axes.
const (
	AxisChild Axis = iota
	AxisDescendant
	AxisDescendantOrSelf
	AxisSelf
	AxisParent
	AxisAncestor
	AxisAncestorOrSelf
	AxisFollowing
	AxisPreceding
	AxisFollowingSibling
	AxisPrecedingSibling
	AxisAttribute
)

var axisNames = map[string]Axis{
	"child": AxisChild, "descendant": AxisDescendant,
	"descendant-or-self": AxisDescendantOrSelf, "self": AxisSelf,
	"parent": AxisParent, "ancestor": AxisAncestor,
	"ancestor-or-self": AxisAncestorOrSelf, "following": AxisFollowing,
	"preceding": AxisPreceding, "following-sibling": AxisFollowingSibling,
	"preceding-sibling": AxisPrecedingSibling, "attribute": AxisAttribute,
}

// Reverse reports whether a positional predicate numbers the axis's
// step results in reverse document order (XPath 2.0 §3.2.2; parent,
// with at most one node, needs no numbering either way).
func (a Axis) Reverse() bool {
	return a == AxisAncestor || a == AxisAncestorOrSelf || a == AxisPreceding || a == AxisPrecedingSibling
}

// TestKind is a node test kind in the surface syntax.
type TestKind uint8

// Node test kinds.
const (
	TestName TestKind = iota // element (or attribute) name test, possibly "*"
	TestAnyNode
	TestText
	TestComment
	TestPI
	TestDocNode
)

// NodeTest is a step's node test.
type NodeTest struct {
	Kind TestKind
	Name string // for TestName ("" means "*")
}

// Step is one step of a path expression: either a primary expression
// (first step) or an axis step, each with optional predicates.
type Step struct {
	Expr  Expr // non-nil for primary-expression steps
	Axis  Axis
	Test  NodeTest
	Preds []Expr
}

// Path is a path expression. Absolute paths (leading "/") start at the
// root of the context document.
type Path struct {
	Absolute bool
	Steps    []Step
}

// Call is a function call (built-in or user-defined).
type Call struct {
	Name string
	Args []Expr
}

// AttrCtor is one attribute of a direct element constructor; its value is
// a concatenation of string literals and enclosed expressions.
type AttrCtor struct {
	Name  string
	Parts []Expr
}

// ElemCtor is a direct element constructor.
type ElemCtor struct {
	Name    string
	Attrs   []AttrCtor
	Content []Expr // literal text (Literal string), enclosed exprs, nested constructors
}

func (*Literal) exprNode()     {}
func (*VarRef) exprNode()      {}
func (*ContextItem) exprNode() {}
func (*Seq) exprNode()         {}
func (*EmptySeq) exprNode()    {}
func (*FLWOR) exprNode()       {}
func (*Quantified) exprNode()  {}
func (*If) exprNode()          {}
func (*Binary) exprNode()      {}
func (*Unary) exprNode()       {}
func (*Path) exprNode()        {}
func (*Call) exprNode()        {}
func (*ElemCtor) exprNode()    {}

// StaticSingleton reports whether e is statically known to evaluate to
// exactly one item: literals, arithmetic/negation, and direct element
// constructors. Both engines use this classification to type external
// variable declarations: when a declaration's default expression is a
// static singleton, binding a multi-item sequence to that variable is
// the type error XPTY0004 (the declared parameter implies a single
// item). The check is deliberately conservative — expressions whose
// cardinality is only known at run time report false and accept any
// binding.
func StaticSingleton(e Expr) bool {
	switch x := e.(type) {
	case *Literal, *ElemCtor:
		return true
	case *Unary:
		return StaticSingleton(x.X)
	case *Binary:
		switch x.Op {
		case OpAdd, OpSub, OpMul, OpDiv, OpIDiv, OpMod:
			return StaticSingleton(x.L) && StaticSingleton(x.R)
		}
	case *Seq:
		return len(x.Items) == 1 && StaticSingleton(x.Items[0])
	}
	return false
}

// PredIsPositional classifies a predicate expression as positional: a
// statically numeric expression built from numeric literals, last(),
// position(), and arithmetic over those. Both the relational compiler and
// the naive interpreter use this static classification, so a predicate
// whose value only turns out to be numeric at run time is treated as an
// effective-boolean-value filter by both engines (a documented deviation
// from the dynamic rule of the XQuery specification).
func PredIsPositional(e Expr) bool {
	switch x := e.(type) {
	case *Literal:
		return x.Kind == LitInt || x.Kind == LitDouble
	case *Call:
		return x.Name == "last" || x.Name == "position"
	case *Binary:
		switch x.Op {
		case OpAdd, OpSub, OpMul, OpDiv, OpIDiv, OpMod:
			return PredIsPositional(x.L) && PredIsPositional(x.R)
		}
	case *Unary:
		return PredIsPositional(x.X)
	}
	return false
}

// PredUsesPosition reports whether a predicate is position-sensitive in
// any form: a bare positional predicate (PredIsPositional), or any
// expression referencing position() or last() — e.g. the boolean
// [position() = 2], which PredIsPositional deliberately classifies as a
// general predicate. Plan rewrites that change a step's context node
// sets (descendant-step fusion) must be suppressed for such predicates,
// because they change what position()/last() evaluate to. The check is
// a conservative over-approximation: a position()/last() occurrence
// inside a nested path's own predicate also reports true, which only
// costs the rewrite, never correctness.
func PredUsesPosition(e Expr) bool {
	return PredIsPositional(e) || refersToPosition(e)
}

// refersToPosition walks the expression for position()/last() calls.
func refersToPosition(e Expr) bool {
	switch x := e.(type) {
	case *Call:
		if x.Name == "last" || x.Name == "position" {
			return true
		}
		for _, a := range x.Args {
			if refersToPosition(a) {
				return true
			}
		}
	case *Seq:
		for _, it := range x.Items {
			if refersToPosition(it) {
				return true
			}
		}
	case *If:
		return refersToPosition(x.Cond) || refersToPosition(x.Then) || refersToPosition(x.Else)
	case *Binary:
		return refersToPosition(x.L) || refersToPosition(x.R)
	case *Unary:
		return refersToPosition(x.X)
	case *Path:
		for _, s := range x.Steps {
			if s.Expr != nil && refersToPosition(s.Expr) {
				return true
			}
			for _, p := range s.Preds {
				if refersToPosition(p) {
					return true
				}
			}
		}
	case *FLWOR:
		for _, cl := range x.Clauses {
			if cl.Expr != nil && refersToPosition(cl.Expr) {
				return true
			}
			for _, k := range cl.Keys {
				if refersToPosition(k.Expr) {
					return true
				}
			}
		}
		return refersToPosition(x.Return)
	case *Quantified:
		for _, s := range x.Seqs {
			if refersToPosition(s) {
				return true
			}
		}
		return refersToPosition(x.Satisfies)
	case *ElemCtor:
		for _, a := range x.Attrs {
			for _, p := range a.Parts {
				if refersToPosition(p) {
					return true
				}
			}
		}
		for _, p := range x.Content {
			if refersToPosition(p) {
				return true
			}
		}
	}
	return false
}
