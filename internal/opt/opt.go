// Package opt is the property-driven peephole optimizer of §4.1: a single
// pass over the physical plan DAG, visiting each operator once, maintains
// the column properties
//
//	dense(c)        c is the sequence 1,2,3,…
//	key(c)          c is duplicate-free
//	const(c)        c has one constant value
//	ord([c…])       tuples are lexicographically ordered on [c…]
//	grpord([c…],g)  tuples with equal g are ordered on [c…] (groups need
//	                not be consecutive — the paper's generalization of
//	                secondary sort orders)
//
// and uses them to
//
//   - drop sort operators whose order already holds,
//   - turn full sorts into refine sorts (prefix already sorted) or into
//     stable one-column sorts (grpord),
//   - run ρ (DENSE_RANK) as a streaming hash-based numbering instead of a
//     sorting implementation (the grpord case called out in the paper),
//   - select positional joins on dense autoincrement key columns, and
//   - switch duplicate elimination to merge mode on sorted inputs.
package opt

import (
	"slices"

	"mxq/internal/ralg"
)

// props are the inferred column properties of one plan node's output.
type props struct {
	ords  [][]string // known lexicographic orderings
	grps  []grpOrd   // known group orderings
	dense map[string]bool
	key   map[string]bool
	cnst  map[string]bool
}

type grpOrd struct {
	cols []string
	g    string
}

func newProps() *props {
	return &props{dense: map[string]bool{}, key: map[string]bool{}, cnst: map[string]bool{}}
}

// covers reports whether the node is known to be sorted on cols:
// constant columns are skipped, and once a matched column is a key the
// remaining columns are free.
func (p *props) covers(cols []string) bool {
	want := p.strip(cols)
	if len(want) == 0 {
		return true
	}
	for _, ord := range p.ords {
		if p.prefixMatch(ord, want) {
			return true
		}
	}
	return false
}

// sortedPrefix returns the number of leading cols the input is known to
// be sorted on (for refine sorts).
func (p *props) sortedPrefix(cols []string) int {
	best := 0
	for k := len(cols); k > 0; k-- {
		if p.covers(cols[:k]) {
			best = k
			break
		}
	}
	return best
}

func (p *props) strip(cols []string) []string {
	var out []string
	for _, c := range cols {
		if !p.cnst[c] {
			out = append(out, c)
		}
	}
	return out
}

func (p *props) prefixMatch(ord, want []string) bool {
	oi := 0
	for wi := 0; wi < len(want); wi++ {
		// skip const columns inside the known ordering
		for oi < len(ord) && p.cnst[ord[oi]] {
			oi++
		}
		if oi >= len(ord) {
			return false
		}
		if ord[oi] != want[wi] {
			return false
		}
		if p.key[ord[oi]] {
			return true // unique prefix determines the full order
		}
		oi++
	}
	return true
}

// grpCovered reports whether grpord(cols, g) is known: either a global
// ordering on cols holds (any grouping of a sorted sequence is sorted),
// or a recorded grpord entry matches.
func (p *props) grpCovered(cols []string, g string) bool {
	if p.covers(cols) {
		return true
	}
	want := p.strip(cols)
	if len(want) == 0 {
		return true
	}
	for _, e := range p.grps {
		if e.g == g && p.prefixMatch(e.cols, want) {
			return true
		}
	}
	return false
}

// Optimize rewrites the plan DAG in place (returning the possibly new
// root). The pass visits each operator once; because every node's
// orderings are kept as sets (see canon), the work per operator is
// bounded by the distinct orderings over its columns, not by the number
// of derivations that reach them.
func Optimize(p ralg.Plan) ralg.Plan {
	return OptimizeTraced(p, nil)
}

type optimizer struct {
	done  map[ralg.Plan]ralg.Plan
	props map[ralg.Plan]*props
	// trace receives one RewriteStep per fired rule (see OptimizeTraced);
	// nil disables witness capture entirely.
	trace func(RewriteStep)
}

func (o *optimizer) rewrite(p ralg.Plan) ralg.Plan {
	if r, ok := o.done[p]; ok {
		return r
	}
	for i, in := range p.Inputs() {
		p.SetInput(i, o.rewrite(in))
	}
	r := o.rewriteNode(p)
	o.done[p] = r
	if _, ok := o.props[r]; !ok {
		o.props[r] = o.infer(r)
	}
	return r
}

func (o *optimizer) in(p ralg.Plan, i int) *props {
	pr, ok := o.props[p.Inputs()[i]]
	if !ok {
		pr = newProps()
	}
	return pr
}

func (o *optimizer) rewriteNode(p ralg.Plan) ralg.Plan {
	switch n := p.(type) {
	case *ralg.Sort:
		in := o.in(n, 0)
		for _, d := range n.Desc {
			if d {
				// covers/sortedPrefix only prove ascending orderings, so a
				// sort with a descending component can neither be dropped
				// nor turned into a refine sort from them
				return n
			}
		}
		if in.covers(n.By) {
			before, c := o.snap(n)
			o.fired(RuleSortDropCovered, before, c, n.In)
			return n.In // sort already satisfied: drop it
		}
		// stable one-column sort under grpord: sorted groups interleave
		if len(n.By) == 2 && n.Desc == nil && in.grpCovered(n.By[1:], n.By[0]) {
			before, c := o.snap(n)
			n.By = n.By[:1]
			o.fired(RuleSortStableOneCol, before, c, n)
			return n
		}
		if pfx := in.sortedPrefix(n.By); pfx > 0 {
			before, c := o.snap(n)
			n.RefinePrefix = pfx
			o.fired(RuleSortRefinePrefix, before, c, n)
		}
		return n
	case *ralg.RowNum:
		in := o.in(n, 0)
		full := n.OrderBy
		if n.Part != "" {
			full = append([]string{n.Part}, n.OrderBy...)
		}
		hasDesc := false
		for _, d := range n.Desc {
			hasDesc = hasDesc || d
		}
		switch {
		case hasDesc:
			n.Mode = ralg.RankSort
		case in.covers(full):
			before, c := o.snap(n)
			n.Mode = ralg.RankSeq
			o.fired(RuleRankSeq, before, c, n)
		case n.Part != "" && in.grpCovered(n.OrderBy, n.Part):
			before, c := o.snap(n)
			n.Mode = ralg.RankStream
			o.fired(RuleRankStream, before, c, n)
		default:
			n.Mode = ralg.RankSort
		}
		return n
	case *ralg.HashJoin:
		lp, rp := o.in(n, 0), o.in(n, 1)
		switch {
		case rp.dense[n.RKey]:
			before, c := o.snap(n)
			n.Pos = true
			o.fired(RuleJoinPosRight, before, c, n)
		case lp.dense[n.LKey] && lp.key[n.LKey] && rp.covers([]string{n.RKey}):
			// positional probe into the dense left key: equivalent to
			// the left-major hash join because left keys are unique and
			// the right input is key-sorted
			before, c := o.snap(n)
			n.PosLeft = true
			o.fired(RuleJoinPosLeft, before, c, n)
		}
		return n
	case *ralg.Distinct:
		in := o.in(n, 0)
		if in.covers(n.By) {
			before, c := o.snap(n)
			n.Merge = true
			o.fired(RuleDistinctMerge, before, c, n)
		}
		return n
	}
	return p
}

// infer computes the output properties of one (already rewritten) node.
func (o *optimizer) infer(p ralg.Plan) *props {
	pr := newProps()
	switch n := p.(type) {
	case *ralg.Lit:
		litProps(n.Tab, pr)
	case *ralg.LitDecl:
		// declared properties merge with what the table data shows
		// directly; planck verifies each declaration against the rows
		litProps(n.Tab, pr)
		for _, ord := range n.Ords {
			pr.ords = append(pr.ords, ord)
		}
		for _, g := range n.Grps {
			pr.grps = append(pr.grps, grpOrd{cols: g.Cols, g: g.Group})
		}
		for _, c := range n.Dense {
			pr.dense[c] = true
		}
		for _, c := range n.Key {
			pr.key[c] = true
		}
		for _, c := range n.Const {
			pr.cnst[c] = true
		}
	case *ralg.DocRoot:
		pr.key["pos"] = true
		pr.cnst["pos"] = true
		pr.cnst["item"] = true
		pr.ords = append(pr.ords, []string{"pos"})
	case *ralg.ContextRoot:
		// single row, like DocRoot — but the item is only constant within
		// one execution (it depends on the context document), so it keeps
		// the key/ord properties and not const(item)
		pr.key["pos"] = true
		pr.cnst["pos"] = true
		pr.key["item"] = true
		pr.ords = append(pr.ords, []string{"pos"})
	case *ralg.ParamTable:
		// pos is the dense 1..N position of the bound sequence; items are
		// arbitrary (bindings may repeat values)
		pr.key["pos"] = true
		pr.dense["pos"] = true
		pr.ords = append(pr.ords, []string{"pos"})
	case *ralg.CollectionRoot:
		// pos is the dense 1..N document ordinal; items are the distinct
		// document roots in (container, pre) — i.e. sorted — order
		pr.key["pos"] = true
		pr.dense["pos"] = true
		pr.key["item"] = true
		pr.ords = append(pr.ords, []string{"pos"}, []string{"item"})
	case *ralg.Project:
		in := o.in(n, 0)
		m := refMulti(n.Cols)
		for _, ord := range in.ords {
			for _, mapped := range mapColsMulti(ord, m) {
				pr.ords = append(pr.ords, mapped)
			}
		}
		for _, g := range in.grps {
			for _, gd := range m[g.g] {
				for _, mapped := range mapColsMulti(g.cols, m) {
					pr.grps = append(pr.grps, grpOrd{cols: mapped, g: gd})
				}
			}
		}
		for s, ds := range m {
			for _, d := range ds {
				if in.dense[s] {
					pr.dense[d] = true
				}
				if in.key[s] {
					pr.key[d] = true
				}
				if in.cnst[s] {
					pr.cnst[d] = true
				}
			}
		}
	case *ralg.Attach:
		*pr = *o.in(n, 0)
		pr = clone(pr)
		pr.cnst[n.Col] = true
	case *ralg.Select:
		in := o.in(n, 0)
		pr.ords = in.ords
		pr.grps = in.grps
		pr.key = in.key
		pr.cnst = in.cnst
		pr.dense = map[string]bool{} // gaps break denseness
	case *ralg.Fun:
		pr = clone(o.in(n, 0))
	case *ralg.ColToItem:
		pr = clone(o.in(n, 0))
	case *ralg.CardCheck, *ralg.EBV:
		pr = clone(o.in(p, 0))
		if e, ok := p.(*ralg.EBV); ok {
			// one row per group, groups in input order
			in := o.in(p, 0)
			pr = newProps()
			if in.covers([]string{e.Part}) {
				pr.ords = append(pr.ords, []string{e.Part})
			}
			pr.key[e.Part] = true
		}
	case *ralg.CoverCheck:
		pr = clone(o.in(p, 1))
	case *ralg.RowNum:
		pr = clone(o.in(n, 0))
		switch n.Mode {
		case ralg.RankSeq:
			if n.Part == "" {
				pr.dense[n.Out] = true
				pr.key[n.Out] = true
				pr.ords = append(pr.ords, []string{n.Out})
			} else {
				pr.grps = append(pr.grps, grpOrd{cols: []string{n.Out}, g: n.Part})
				if o.in(n, 0).covers([]string{n.Part}) {
					pr.ords = append(pr.ords, []string{n.Part, n.Out})
				}
			}
		case ralg.RankStream:
			if n.Part != "" {
				pr.grps = append(pr.grps, grpOrd{cols: []string{n.Out}, g: n.Part})
			}
		}
	case *ralg.Sort:
		in := o.in(n, 0)
		pr.key = in.key
		pr.cnst = in.cnst
		// a stable sort whose primary key is already the dense row
		// sequence is the identity permutation, so density survives; any
		// other sort may reorder rows, which breaks the in-row-order
		// property even though the column values are unchanged
		if len(n.By) > 0 && (len(n.Desc) == 0 || !n.Desc[0]) && in.dense[n.By[0]] {
			pr.dense = in.dense
		}
		if n.Desc == nil {
			pr.ords = append(pr.ords, n.By)
		}
		// a stable one-column sort preserves group orderings keyed by
		// that column (within-group order is untouched), and turns every
		// global input ordering into such a group ordering: rows with an
		// equal sort key keep their relative — hence sorted — order
		if len(n.By) == 1 {
			for _, g := range in.grps {
				if g.g == n.By[0] {
					pr.grps = append(pr.grps, g)
				}
			}
			for _, ord := range in.ords {
				if len(ord) > 0 {
					pr.grps = append(pr.grps, grpOrd{cols: ord, g: n.By[0]})
				}
			}
		}
	case *ralg.HashJoin:
		lp, rp := o.in(n, 0), o.in(n, 1)
		lm := refMap(n.LCols)
		rm := refMap(n.RCols)
		// left-major: the left ordering survives (with repetitions)
		for _, ord := range lp.ords {
			if mapped := mapCols(ord, lm); len(mapped) > 0 {
				// repetitions keep non-strict order; extend with the
				// right ordering when the left key is unique and the
				// matched ordering ends at the key
				if rp.key[n.RKey] || !lp.key[n.LKey] {
					pr.ords = append(pr.ords, mapped)
				}
				if lp.key[n.LKey] && len(ord) > 0 && ord[len(ord)-1] == n.LKey {
					for _, rord := range rp.ords {
						if len(rord) > 0 && rord[0] == n.RKey {
							ext := append(append([]string{}, mapped...), mapCols(rord[1:], rm)...)
							pr.ords = append(pr.ords, ext)
						}
					}
					pr.ords = append(pr.ords, mapped)
				}
			}
		}
		// key columns survive on the side whose partner key is unique;
		// dense columns survive only when no rows drop or duplicate,
		// which we cannot prove here — except the common map-composition
		// case where the right key is unique and covers the left keys
		if rp.key[n.RKey] {
			for s, d := range lm {
				if lp.key[s] {
					pr.key[d] = true
				}
			}
		}
		if lp.key[n.LKey] {
			for s, d := range rm {
				if rp.key[s] {
					pr.key[d] = true
				}
			}
		}
		for s, d := range lm {
			if lp.cnst[s] {
				pr.cnst[d] = true
			}
		}
		for s, d := range rm {
			if rp.cnst[s] {
				pr.cnst[d] = true
			}
		}
	case *ralg.Cross:
		lp, rp := o.in(n, 0), o.in(n, 1)
		lm := refMap(n.LCols)
		rm := refMap(n.RCols)
		for _, ord := range lp.ords {
			mapped := mapCols(ord, lm)
			if len(mapped) == 0 {
				continue
			}
			pr.ords = append(pr.ords, mapped)
			// unique left ordering: right order refines it
			if len(ord) > 0 && lp.key[ord[len(ord)-1]] {
				for _, rord := range rp.ords {
					ext := append(append([]string{}, mapped...), mapCols(rord, rm)...)
					pr.ords = append(pr.ords, ext)
				}
			}
		}
		for s, d := range lm {
			if lp.cnst[s] {
				pr.cnst[d] = true
			}
		}
		for s, d := range rm {
			if rp.cnst[s] {
				pr.cnst[d] = true
			}
		}
	case *ralg.Diff:
		in := o.in(n, 0)
		pr.ords = in.ords
		pr.grps = in.grps
		pr.key = in.key
		pr.cnst = in.cnst
	case *ralg.Distinct:
		pr = clone(o.in(n, 0))
		// dropping duplicate rows leaves gaps: density does not survive
		pr.dense = map[string]bool{}
	case *ralg.Aggr:
		in := o.in(n, 0)
		pr.key[n.Part] = true
		if in.covers([]string{n.Part}) {
			pr.ords = append(pr.ords, []string{n.Part})
		}
	case *ralg.Step:
		pr.ords = append(pr.ords, []string{"item", "iter"})
	case *ralg.AttrStep:
		pr.ords = append(pr.ords, []string{"item", "iter"})
	case *ralg.ExistJoin:
		pr.ords = append(pr.ords, []string{n.Out1, n.Out2})
	case *ralg.ElemConstruct:
		// one output row per Loop row, in loop order: ordering and
		// uniqueness of the iter column are inherited from the loop
		// relation (an unconditional key claim would be unsound for a
		// loop with duplicate iterations)
		lp := o.props[n.Loop]
		if lp != nil && lp.covers([]string{"iter"}) {
			pr.ords = append(pr.ords, []string{"iter"})
		}
		if lp != nil && lp.key["iter"] {
			pr.key["iter"] = true
		}
	case *ralg.RangeGen:
		in := o.in(n, 0)
		if in.covers([]string{n.Iter}) {
			pr.ords = append(pr.ords, []string{"iter", "pos"})
		}
		pr.grps = append(pr.grps, grpOrd{cols: []string{"pos"}, g: "iter"})
	case *ralg.Union:
		// disjoint union of one input passes through
		if len(n.Ins) == 1 {
			pr = clone(o.props[n.Ins[0]])
		}
	}
	pr.canon()
	return pr
}

// canon closes the orderings under expandOrds and gives ords and grps
// set semantics, in fresh slices (several cases above alias the input's).
// Every consumer asks "is there an ordering that…", so dropping repeats
// changes no answer; without it clone, expandOrds, Cross and HashJoin
// multiply the lists at every operator and stacked positional
// predicates ([1][1][1]) grow them exponentially.
func (p *props) canon() {
	p.grps = uniq(p.grps, func(a, b grpOrd) bool { return a.g == b.g && slices.Equal(a.cols, b.cols) })
	p.ords = uniq(p.ords, slices.Equal[[]string])
	p.expandOrds()
	p.ords = uniq(p.ords, slices.Equal[[]string])
}

// uniq returns the first occurrence of every distinct element of xs.
// The lists are short (tens of entries on the largest XMark plan), so
// pairwise comparison beats hashing the column names.
func uniq[T any](xs []T, eq func(a, b T) bool) []T {
	out := make([]T, 0, len(xs))
	for _, x := range xs {
		if !slices.ContainsFunc(out, func(o T) bool { return eq(o, x) }) {
			out = append(out, x)
		}
	}
	return out
}

// expandOrds derives implied orderings: a table sorted on [a…g] whose
// equal-g groups are sorted on [x…] (grpord) is sorted on [a…g, x…] —
// equal-g rows are consecutive there, and subsets preserve grpord order.
func (p *props) expandOrds() {
	var extra [][]string
	for _, ord := range p.ords {
		if len(ord) == 0 {
			continue
		}
		last := ord[len(ord)-1]
		for _, g := range p.grps {
			if g.g == last {
				extra = append(extra, append(append([]string{}, ord...), g.cols...))
			}
		}
	}
	p.ords = append(p.ords, extra...)
}

func clone(p *props) *props {
	out := newProps()
	out.ords = append(out.ords, p.ords...)
	out.grps = append(out.grps, p.grps...)
	for k := range p.dense {
		out.dense[k] = true
	}
	for k := range p.key {
		out.key[k] = true
	}
	for k := range p.cnst {
		out.cnst[k] = true
	}
	return out
}

func refMap(refs []ralg.ColRef) map[string]string {
	m := map[string]string{}
	for _, r := range refs {
		if _, ok := m[r.Src]; !ok {
			m[r.Src] = r.Dst
		}
	}
	return m
}

func refMulti(refs []ralg.ColRef) map[string][]string {
	m := map[string][]string{}
	for _, r := range refs {
		m[r.Src] = append(m[r.Src], r.Dst)
	}
	return m
}

func mapCols(cols []string, m map[string]string) []string {
	var out []string
	for _, c := range cols {
		d, ok := m[c]
		if !ok {
			return out
		}
		out = append(out, d)
	}
	return out
}

// mapColsMulti maps an ordering through a multi-alias projection,
// returning one mapped ordering per alias combination prefix (aliases
// beyond the first are only followed for single columns to bound the
// fan-out; duplicated sort columns are rare and short).
func mapColsMulti(cols []string, m map[string][]string) [][]string {
	outs := [][]string{nil}
	for _, c := range cols {
		ds, ok := m[c]
		if !ok || len(ds) == 0 {
			break
		}
		var next [][]string
		for _, prefix := range outs {
			for _, d := range ds {
				next = append(next, append(append([]string{}, prefix...), d))
			}
		}
		outs = next
		if len(outs) > 8 {
			break
		}
	}
	var final [][]string
	for _, o := range outs {
		if len(o) > 0 {
			final = append(final, o)
		}
	}
	return final
}

// litProps inspects a literal table directly (they are tiny: loop seeds
// and empty relations).
func litProps(t *ralg.Table, pr *props) {
	for _, name := range t.Names() {
		c := t.Col(name)
		if c.Kind != ralg.KInt {
			continue
		}
		sorted, uniq, dense := true, true, true
		for i := 0; i < len(c.Int); i++ {
			if i > 0 {
				if c.Int[i] < c.Int[i-1] {
					sorted = false
				}
				if c.Int[i] == c.Int[i-1] {
					uniq = false
				}
			}
			if c.Int[i] != int64(i)+1 {
				dense = false
			}
		}
		if sorted {
			pr.ords = append(pr.ords, []string{name})
		}
		if sorted && uniq {
			pr.key[name] = true
		}
		if dense {
			pr.dense[name] = true
		}
		if t.N <= 1 {
			pr.cnst[name] = true
		}
	}
}
