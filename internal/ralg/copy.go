package ralg

import "fmt"

// Copier deep-copies plan DAGs. Copies made through one Copier share a
// memo, so a subplan reachable from two copied roots maps to one shared
// copy — the shape rewrite witnesses need: a before/after plan pair
// wired to the same copied inputs. Table payloads are immutable by the
// package's concurrency model and stay shared with the original.
type Copier struct{ memo map[Plan]Plan }

// NewCopier returns a Copier with an empty memo.
func NewCopier() *Copier { return &Copier{memo: map[Plan]Plan{}} }

// Replace pre-seeds the memo: every occurrence of orig reached by later
// Copy calls resolves to repl instead of a fresh copy. Translation
// validation uses it to substitute synthesized literal tables for the
// inputs of a rewrite witness.
func (c *Copier) Replace(orig, repl Plan) { c.memo[orig] = repl }

// Copy returns a deep copy of the DAG rooted at p, preserving sharing.
func (c *Copier) Copy(p Plan) Plan {
	if p == nil {
		return nil
	}
	if q, ok := c.memo[p]; ok {
		return q
	}
	q := c.CopyNode(p)
	c.memo[p] = q
	return q
}

// CopyNode copies the single node p — cloning its owned annotation
// slices and resolving its inputs through Copy — without memoizing p
// itself, so two CopyNode calls on one node yield distinct clones (the
// before and after snapshots of one rewrite step).
func (c *Copier) CopyNode(p Plan) Plan {
	switch n := p.(type) {
	case *Lit:
		return &Lit{Tab: n.Tab}
	case *LitDecl:
		q := &LitDecl{Tab: n.Tab, Dense: cloneStrs(n.Dense), Key: cloneStrs(n.Key), Const: cloneStrs(n.Const)}
		for _, o := range n.Ords {
			q.Ords = append(q.Ords, cloneStrs(o))
		}
		for _, g := range n.Grps {
			q.Grps = append(q.Grps, GrpSpec{Cols: cloneStrs(g.Cols), Group: g.Group})
		}
		return q
	case *DocRoot:
		return &DocRoot{Doc: n.Doc}
	case *ContextRoot:
		return &ContextRoot{}
	case *ParamTable:
		return &ParamTable{Var: n.Var}
	case *CollectionRoot:
		return &CollectionRoot{Coll: n.Coll}
	case *Fail:
		return &Fail{Code: n.Code, Msg: n.Msg}
	case *Project:
		return &Project{unary: c.in(n.In), Cols: cloneRefs(n.Cols)}
	case *Attach:
		q := *n
		q.In = c.Copy(n.In)
		return &q
	case *Select:
		return &Select{unary: c.in(n.In), Cond: n.Cond, Neg: n.Neg}
	case *Fun:
		return &Fun{unary: c.in(n.In), Op: n.Op, Args: cloneStrs(n.Args), Out: n.Out}
	case *RowNum:
		return &RowNum{unary: c.in(n.In), Out: n.Out, OrderBy: cloneStrs(n.OrderBy), Desc: cloneBools(n.Desc), Part: n.Part, Mode: n.Mode}
	case *Sort:
		return &Sort{unary: c.in(n.In), By: cloneStrs(n.By), Desc: cloneBools(n.Desc), RefinePrefix: n.RefinePrefix}
	case *HashJoin:
		return &HashJoin{binary: c.lr(n.L, n.R), LKey: n.LKey, RKey: n.RKey,
			LCols: cloneRefs(n.LCols), RCols: cloneRefs(n.RCols), Pos: n.Pos, PosLeft: n.PosLeft}
	case *ExistJoin:
		q := *n
		q.L, q.R = c.Copy(n.L), c.Copy(n.R)
		return &q
	case *Cross:
		return &Cross{binary: c.lr(n.L, n.R), LCols: cloneRefs(n.LCols), RCols: cloneRefs(n.RCols)}
	case *Union:
		q := &Union{Ins: make([]Plan, len(n.Ins))}
		for i, in := range n.Ins {
			q.Ins[i] = c.Copy(in)
		}
		return q
	case *Diff:
		return &Diff{binary: c.lr(n.L, n.R), LKey: n.LKey, RKey: n.RKey}
	case *Distinct:
		return &Distinct{unary: c.in(n.In), By: cloneStrs(n.By), Merge: n.Merge}
	case *Aggr:
		q := *n
		q.In = c.Copy(n.In)
		return &q
	case *Step:
		q := *n
		q.In = c.Copy(n.In)
		return &q
	case *AttrStep:
		q := *n
		q.In = c.Copy(n.In)
		return &q
	case *ElemConstruct:
		q := &ElemConstruct{Loop: c.Copy(n.Loop), Content: c.Copy(n.Content), Tag: n.Tag}
		for _, a := range n.Attrs {
			parts := make([]Plan, len(a.Parts))
			for i, p := range a.Parts {
				parts[i] = c.Copy(p)
			}
			q.Attrs = append(q.Attrs, AttrSpec{Attr: a.Attr, Parts: parts})
		}
		return q
	case *ColToItem:
		q := *n
		q.In = c.Copy(n.In)
		return &q
	case *RangeGen:
		q := *n
		q.In = c.Copy(n.In)
		return &q
	case *CoverCheck:
		q := *n
		q.L, q.R = c.Copy(n.L), c.Copy(n.R)
		return &q
	case *EBV:
		q := *n
		q.In = c.Copy(n.In)
		return &q
	case *CardCheck:
		q := *n
		q.In = c.Copy(n.In)
		return &q
	}
	panic(fmt.Sprintf("ralg: Copier: unknown operator %T", p))
}

func (c *Copier) in(p Plan) unary     { return unary{In: c.Copy(p)} }
func (c *Copier) lr(l, r Plan) binary { return binary{L: c.Copy(l), R: c.Copy(r)} }
func cloneStrs(s []string) []string   { return append([]string(nil), s...) }
func cloneBools(s []bool) []bool      { return append([]bool(nil), s...) }
func cloneRefs(s []ColRef) []ColRef   { return append([]ColRef(nil), s...) }

// CopyPlan deep-copies the plan DAG rooted at p: fresh nodes and
// annotation slices (mutating the copy never touches the original),
// subplans shared in the original still shared in the copy, immutable
// *Table payloads shared with the original.
func CopyPlan(p Plan) Plan { return NewCopier().Copy(p) }

// PlansEqual reports structural equality of two plan DAGs: same node
// types, same per-node annotations, same input wiring, with consistent
// sharing (two references to one node of a must resolve to one node of
// b, and vice versa). Literal tables compare by content.
func PlansEqual(a, b Plan) bool {
	return plansEqual(a, b, map[Plan]Plan{}, map[Plan]Plan{})
}

func plansEqual(a, b Plan, fwd, rev map[Plan]Plan) bool {
	if a == nil || b == nil {
		return a == b
	}
	if q, ok := fwd[a]; ok {
		return q == b
	}
	if p, ok := rev[b]; ok {
		return p == a
	}
	fwd[a], rev[b] = b, a
	if !nodeEqual(a, b) {
		return false
	}
	ai, bi := a.Inputs(), b.Inputs()
	if len(ai) != len(bi) {
		return false
	}
	for i := range ai {
		if !plansEqual(ai[i], bi[i], fwd, rev) {
			return false
		}
	}
	return true
}

// nodeEqual compares the annotations of two nodes, ignoring inputs.
func nodeEqual(a, b Plan) bool {
	switch x := a.(type) {
	case *Lit:
		y, ok := b.(*Lit)
		return ok && TablesEqual(x.Tab, y.Tab)
	case *LitDecl:
		y, ok := b.(*LitDecl)
		return ok && TablesEqual(x.Tab, y.Tab) && ordsEq(x.Ords, y.Ords) && grpsEq(x.Grps, y.Grps) &&
			strsEq(x.Dense, y.Dense) && strsEq(x.Key, y.Key) && strsEq(x.Const, y.Const)
	case *DocRoot:
		y, ok := b.(*DocRoot)
		return ok && x.Doc == y.Doc
	case *ContextRoot:
		_, ok := b.(*ContextRoot)
		return ok
	case *ParamTable:
		y, ok := b.(*ParamTable)
		return ok && x.Var == y.Var
	case *CollectionRoot:
		y, ok := b.(*CollectionRoot)
		return ok && x.Coll == y.Coll
	case *Fail:
		y, ok := b.(*Fail)
		return ok && x.Code == y.Code && x.Msg == y.Msg
	case *Project:
		y, ok := b.(*Project)
		return ok && refsEq(x.Cols, y.Cols)
	case *Attach:
		y, ok := b.(*Attach)
		return ok && x.Col == y.Col && x.Kind == y.Kind && x.I == y.I && x.B == y.B && x.It == y.It
	case *Select:
		y, ok := b.(*Select)
		return ok && x.Cond == y.Cond && x.Neg == y.Neg
	case *Fun:
		y, ok := b.(*Fun)
		return ok && x.Op == y.Op && strsEq(x.Args, y.Args) && x.Out == y.Out
	case *RowNum:
		y, ok := b.(*RowNum)
		return ok && x.Out == y.Out && strsEq(x.OrderBy, y.OrderBy) && boolsEq(x.Desc, y.Desc) &&
			x.Part == y.Part && x.Mode == y.Mode
	case *Sort:
		y, ok := b.(*Sort)
		return ok && strsEq(x.By, y.By) && boolsEq(x.Desc, y.Desc) && x.RefinePrefix == y.RefinePrefix
	case *HashJoin:
		y, ok := b.(*HashJoin)
		return ok && x.LKey == y.LKey && x.RKey == y.RKey && refsEq(x.LCols, y.LCols) &&
			refsEq(x.RCols, y.RCols) && x.Pos == y.Pos && x.PosLeft == y.PosLeft
	case *ExistJoin:
		y, ok := b.(*ExistJoin)
		return ok && x.Cmp == y.Cmp && x.LIter == y.LIter && x.LItem == y.LItem &&
			x.RIter == y.RIter && x.RItem == y.RItem && x.Out1 == y.Out1 && x.Out2 == y.Out2
	case *Cross:
		y, ok := b.(*Cross)
		return ok && refsEq(x.LCols, y.LCols) && refsEq(x.RCols, y.RCols)
	case *Union:
		_, ok := b.(*Union)
		return ok
	case *Diff:
		y, ok := b.(*Diff)
		return ok && x.LKey == y.LKey && x.RKey == y.RKey
	case *Distinct:
		y, ok := b.(*Distinct)
		return ok && strsEq(x.By, y.By) && x.Merge == y.Merge
	case *Aggr:
		y, ok := b.(*Aggr)
		return ok && x.Part == y.Part && x.Op == y.Op && x.Arg == y.Arg && x.Out == y.Out
	case *Step:
		y, ok := b.(*Step)
		return ok && x.Axis == y.Axis && x.Test == y.Test && x.Variant == y.Variant &&
			x.IterCol == y.IterCol && x.ItemCol == y.ItemCol
	case *AttrStep:
		y, ok := b.(*AttrStep)
		return ok && x.NameTest == y.NameTest && x.IterCol == y.IterCol && x.ItemCol == y.ItemCol
	case *ElemConstruct:
		y, ok := b.(*ElemConstruct)
		if !ok || x.Tag != y.Tag || len(x.Attrs) != len(y.Attrs) {
			return false
		}
		for i := range x.Attrs {
			if x.Attrs[i].Attr != y.Attrs[i].Attr || len(x.Attrs[i].Parts) != len(y.Attrs[i].Parts) {
				return false
			}
		}
		return true
	case *ColToItem:
		y, ok := b.(*ColToItem)
		return ok && x.Src == y.Src && x.Dst == y.Dst
	case *RangeGen:
		y, ok := b.(*RangeGen)
		return ok && x.Iter == y.Iter && x.Lo == y.Lo && x.Hi == y.Hi
	case *CoverCheck:
		y, ok := b.(*CoverCheck)
		return ok && x.LoopIter == y.LoopIter && x.Part == y.Part && x.Fn == y.Fn
	case *EBV:
		y, ok := b.(*EBV)
		return ok && x.Part == y.Part && x.Item == y.Item && x.Out == y.Out
	case *CardCheck:
		y, ok := b.(*CardCheck)
		return ok && x.Part == y.Part && x.AtMostOne == y.AtMostOne && x.Fn == y.Fn
	}
	return false
}

// TablesEqual reports whether two tables hold the same schema and the
// same rows in the same order (nil tables compare equal only to nil).
func TablesEqual(a, b *Table) bool {
	if a == nil || b == nil {
		return a == b
	}
	if a == b {
		return true
	}
	if a.N != b.N || len(a.names) != len(b.names) {
		return false
	}
	for i, name := range a.names {
		if b.names[i] != name {
			return false
		}
		ca, cb := &a.cols[i], &b.cols[i]
		if ca.Kind != cb.Kind {
			return false
		}
		switch ca.Kind {
		case KInt:
			for r := range ca.Int {
				if ca.Int[r] != cb.Int[r] {
					return false
				}
			}
		case KBool:
			for r := range ca.Bool {
				if ca.Bool[r] != cb.Bool[r] {
					return false
				}
			}
		default:
			for r := 0; r < ca.Item.Len(); r++ {
				if ca.Item.At(r) != cb.Item.At(r) {
					return false
				}
			}
		}
	}
	return true
}

func strsEq(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func boolsEq(a, b []bool) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func refsEq(a, b []ColRef) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func ordsEq(a, b [][]string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !strsEq(a[i], b[i]) {
			return false
		}
	}
	return true
}

func grpsEq(a, b []GrpSpec) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Group != b[i].Group || !strsEq(a[i].Cols, b[i].Cols) {
			return false
		}
	}
	return true
}
