package opt

import (
	"slices"

	"mxq/internal/ralg"
)

// find returns the kept node of list that computes what p computes.
func find(list *memo, p ralg.Plan) *memo {
	for m := list; m != nil; m = m.next {
		if same(p, m.r) {
			return m
		}
	}
	return nil
}

// keep carves p's memo from the run's slab and adds it to list.
func (o *optimizer) keep(p ralg.Plan, pr *props, list **memo) *memo {
	if len(o.memoSlab) == 0 {
		o.memoSlab = make([]memo, 32)
	}
	m := &o.memoSlab[0]
	o.memoSlab, *m = o.memoSlab[1:], memo{r: p, pr: pr, next: *list}
	*list = m
	return m
}

// same reports whether p computes what the kept node q computes: the
// same operator with equal fields, compared after both were rewritten,
// over the same inputs, compared by identity. An ElemConstruct has no
// case: each creates new nodes, which `is` and `<<` tell apart, so two
// never compute the same, and neither do the nodes that read them.
func same(p, q ralg.Plan) bool {
	switch a := p.(type) {
	case *ralg.Lit:
		b, ok := q.(*ralg.Lit)
		return ok && sameLit(a.Tab, b.Tab)
	case *ralg.DocRoot:
		return eq(a, q)
	case *ralg.ContextRoot:
		return eq(a, q)
	case *ralg.ParamTable:
		return eq(a, q)
	case *ralg.CollectionRoot:
		return eq(a, q)
	case *ralg.Fail:
		return eq(a, q)
	case *ralg.Select:
		return eq(a, q)
	case *ralg.ExistJoin:
		return eq(a, q)
	case *ralg.Diff:
		return eq(a, q)
	case *ralg.Aggr:
		return eq(a, q)
	case *ralg.Step:
		return eq(a, q)
	case *ralg.RangeGen:
		return eq(a, q)
	case *ralg.CoverCheck:
		return eq(a, q)
	case *ralg.EBV:
		return eq(a, q)
	case *ralg.CardCheck:
		return eq(a, q)
	case *ralg.Attach:
		b, ok := q.(*ralg.Attach)
		return ok && a.In == b.In && a.Col == b.Col && a.It.Same(b.It)
	case *ralg.Project:
		b, ok := q.(*ralg.Project)
		return ok && a.In == b.In && slices.Equal(a.Cols, b.Cols)
	case *ralg.Fun:
		b, ok := q.(*ralg.Fun)
		return ok && a.In == b.In && a.Op == b.Op && a.Out == b.Out && slices.Equal(a.Args, b.Args)
	case *ralg.RowNum:
		b, ok := q.(*ralg.RowNum)
		return ok && a.In == b.In && a.Out == b.Out && a.Part == b.Part && a.Mode == b.Mode &&
			slices.Equal(a.OrderBy, b.OrderBy) && slices.Equal(a.Desc, b.Desc)
	case *ralg.Sort:
		b, ok := q.(*ralg.Sort)
		return ok && a.In == b.In && a.RefinePrefix == b.RefinePrefix &&
			slices.Equal(a.By, b.By) && slices.Equal(a.Desc, b.Desc)
	case *ralg.HashJoin:
		b, ok := q.(*ralg.HashJoin)
		return ok && a.L == b.L && a.R == b.R && a.LKey == b.LKey && a.RKey == b.RKey &&
			slices.Equal(a.LCols, b.LCols) && slices.Equal(a.RCols, b.RCols)
	case *ralg.Cross:
		b, ok := q.(*ralg.Cross)
		return ok && a.L == b.L && a.R == b.R && slices.Equal(a.LCols, b.LCols) && slices.Equal(a.RCols, b.RCols)
	case *ralg.Union:
		b, ok := q.(*ralg.Union)
		return ok && slices.Equal(a.Ins, b.Ins)
	case *ralg.Distinct:
		b, ok := q.(*ralg.Distinct)
		return ok && a.In == b.In && slices.Equal(a.By, b.By)
	}
	return false
}

// eq compares two operators whose fields are all comparable; the
// inputs among them compare by identity.
func eq[T comparable](a *T, q ralg.Plan) bool {
	b, ok := any(q).(*T)
	return ok && *a == *b
}

// smallLit is the most rows a literal compared by content may hold (the
// compiler's are loop seeds and empty sequences); a larger one is only
// the same as a literal of the same table.
const smallLit = 8

// sameLit reports whether two literal tables hold the same rows of the
// same columns, each of one tag: an empty column's tag tells two empty
// literals apart.
func sameLit(a, b *ralg.Table) bool {
	if a == b || a.N > smallLit || !ralg.TablesEqual(a, b) {
		return a == b
	}
	for _, name := range a.Names() {
		ka, ua := a.Col(name).Uniform()
		kb, ub := b.Col(name).Uniform()
		if !ua || !ub || ka != kb {
			return false
		}
	}
	return true
}
