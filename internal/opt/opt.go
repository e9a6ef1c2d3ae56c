// Package opt is the property-driven peephole optimizer of §4.1: a single
// pass over the physical plan DAG, visiting each operator once, maintains
// the column properties
//
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
//     sorting implementation (the grpord case called out in the paper).
//
// Duplicate elimination and the equi-join have no variant to pick: ralg's
// Distinct finds a sorted input at run time, as its sorts do, and its
// join finds a key run b, b+1, … to look rows up positionally.
//
// The same pass interns the plan: a rewritten node that computes what an
// already kept one computes (see same) is replaced by it, so every
// occurrence of a subexpression in the query text becomes one shared
// node, which ralg's Exec sorts and steps once.
package opt

import (
	"slices"
	"strings"
	"unicode/utf8"

	"mxq/internal/ralg"
	"mxq/internal/xqt"
)

// Optimize is OptimizeTraced without a trace, kept for the repository
// benchmark (bench/), which calls it.
func Optimize(p ralg.Plan) ralg.Plan { return OptimizeTraced(p, nil) }

// OptimizeSchedule rewrites the numbered plan s in place (s is spent) and
// returns the optimized plan numbered. The pass visits each node once, in
// number order, so its inputs are done before it; as orderings are kept
// as sets (see props), a node costs the distinct orderings over its
// columns, not the derivations that reach them. Each node is replaced by
// the kept node standing for it: itself, the input a dropped node returns
// or the kept node it duplicates, compared after its own rewrite. The kept
// nodes, in the order they were kept, are the new schedule: the order
// NewSchedule numbers the optimized root in. trace is OptimizeTraced's.
func OptimizeSchedule(s ralg.Schedule, trace func(RewriteStep)) ralg.Schedule {
	o := &optimizer{cols: cols{ids: map[string]rune{}}, strs: map[string]string{}, trace: trace,
		memos: make([]*memo, len(s)), kept: make([]memo, 0, len(s))}
	var ins []*props // the node's inputs' properties
	for i, op := range s {
		ins = ins[:0]
		list := &o.leaves
		for k, in := range op.In {
			m := o.memos[in]
			op.Plan.SetInput(k, m.r)
			ins = append(ins, m.pr)
			if k == 0 {
				list = &m.users
			}
		}
		if r := o.rewriteNode(op.Plan, ins); r != op.Plan {
			o.memos[i] = o.memos[op.In[0]] // a dropped operator returns its first input
		} else if o.memos[i] = find(*list, op.Plan); o.memos[i] == nil {
			o.memos[i] = o.keep(i, op.Plan, o.infer(op.Plan, ins), list)
		}
	}
	return o.schedule(s)
}

type optimizer struct {
	cols
	memos  []*memo           // by number in the plan being rewritten: the kept node standing for it
	kept   []memo            // the kept nodes, in the order they were kept
	leaves *memo             // the kept nodes without inputs
	strs   map[string]string // the run's orderings, one copy each
	buf    []byte            // the ordering being spelled
	m      []colPair         // the current node's column mappings
	// props, ords and grps are carved from these: one run's die together
	slab    []props
	ordSlab []string
	grpSlab []grpOrd
	// trace receives one RewriteStep per fired rule (see OptimizeTraced);
	// nil disables witness capture entirely.
	trace func(RewriteStep)
}

// memo is one kept node r with its properties, the number at of the node
// it was kept from and its number n in the optimized schedule. A node is
// only ever replaced by a kept node reading the same first input, so each
// keeps the list of kept nodes reading it first: users, linked by next.
type memo struct {
	r           ralg.Plan
	pr          *props
	at, n       int
	users, next *memo
}

// schedule numbers the kept nodes in keep order, sized exactly.
func (o *optimizer) schedule(s ralg.Schedule) ralg.Schedule {
	n := 0
	for _, m := range o.kept {
		n += len(s[m.at].In)
	}
	out, in := make(ralg.Schedule, len(o.kept)), make([]int, n)
	for i, m := range o.kept {
		from := s[m.at].In
		out[i] = ralg.Op{Plan: m.r, In: in[:len(from):len(from)]}
		for k, j := range from {
			in[k] = o.memos[j].n
		}
		in = in[len(from):]
	}
	return out
}

// ord spells the named columns as an ordering.
func (o *optimizer) ord(names ...string) string {
	b := o.buf[:0]
	for _, c := range names {
		b = utf8.AppendRune(b, o.id(c))
	}
	return o.str(b)
}

// str returns the run's copy of the ordering spelled in b, and keeps b
// as the buffer to spell the next one in.
func (o *optimizer) str(b []byte) string {
	o.buf = b[:0]
	s, ok := o.strs[string(b)]
	if !ok {
		s = string(b)
		o.strs[s] = s
	}
	return s
}

// with adds the named columns to s.
func (o *optimizer) with(s colSet, names ...string) colSet {
	for _, c := range names {
		s = s.with(o.id(c))
	}
	return s
}

// alloc carves a props from the run's slab.
func (o *optimizer) alloc(p props) *props {
	if len(o.slab) == 0 {
		o.slab = make([]props, 32)
	}
	q := &o.slab[0]
	o.slab, *q = o.slab[1:], p
	return q
}

// derive copies in with its lists clipped, so that adding to them
// copies them instead of writing into in's.
func (o *optimizer) derive(in *props) *props {
	return o.alloc(props{slices.Clip(in.ords), slices.Clip(in.grps), in.key, in.cnst})
}

// add returns the set s with x added, carving a larger copy from *slab
// when s is full.
func add[T comparable](s []T, x T, slab *[]T) []T {
	if slices.Contains(s, x) {
		return s
	}
	if len(s) == cap(s) {
		n := max(2*len(s), 4)
		if len(*slab) < n {
			*slab = make([]T, max(n, 128))
		}
		s, *slab = append((*slab)[:0:n], s...), (*slab)[n:]
	}
	return append(s, x)
}

func (o *optimizer) addOrd(p *props, ord string) { p.ords = add(p.ords, ord, &o.ordSlab) }
func (o *optimizer) addGrp(p *props, g grpOrd)   { p.grps = add(p.grps, g, &o.grpSlab) }

func (o *optimizer) rewriteNode(p ralg.Plan, ins []*props) ralg.Plan {
	switch n := p.(type) {
	case *ralg.Sort:
		if slices.Contains(n.Desc, true) {
			// covers/sortedPrefix only prove ascending orderings, so a
			// sort with a descending component can neither be dropped
			// nor turned into a refine sort from them
			return n
		}
		in, by := ins[0], o.ord(n.By...)
		if in.covers(by) {
			before, c := o.snap(n)
			o.fired(RuleSortDropCovered, before, c, n.In)
			return n.In // sort already satisfied: drop it
		}
		// stable one-column sort under grpord: sorted groups interleave
		if len(n.By) == 2 && n.Desc == nil && in.grpCovered(o.ord(n.By[1]), o.id(n.By[0])) {
			before, c := o.snap(n)
			n.By = n.By[:1]
			o.fired(RuleSortStableOneCol, before, c, n)
			return n
		}
		if pfx := in.sortedPrefix(by); pfx > 0 {
			before, c := o.snap(n)
			n.RefinePrefix = pfx
			o.fired(RuleSortRefinePrefix, before, c, n)
		}
		return n
	case *ralg.RowNum:
		in := ins[0]
		full := n.OrderBy
		if n.Part != "" {
			full = append([]string{n.Part}, n.OrderBy...)
		}
		switch {
		case slices.Contains(n.Desc, true):
			n.Mode = ralg.RankSort
		case in.covers(o.ord(full...)):
			before, c := o.snap(n)
			n.Mode = ralg.RankSeq
			o.fired(RuleRankSeq, before, c, n)
		case n.Part != "" && in.grpCovered(o.ord(n.OrderBy...), o.id(n.Part)):
			before, c := o.snap(n)
			n.Mode = ralg.RankStream
			o.fired(RuleRankStream, before, c, n)
		default:
			n.Mode = ralg.RankSort
		}
		return n
	}
	return p
}

// infer computes the output properties of one (already rewritten) node
// from its inputs' (ins, in Inputs order). An operator that keeps its
// input's properties returns them, one that changes a field copies the
// struct and shares the rest.
func (o *optimizer) infer(p ralg.Plan, ins []*props) *props {
	switch n := p.(type) {
	case *ralg.Fun, *ralg.CardCheck, *ralg.Select, *ralg.Diff, *ralg.Distinct:
		return o.expand(ins[0], true)
	case *ralg.CoverCheck:
		return o.expand(ins[1], true)
	case *ralg.Union:
		// disjoint union of one input passes through
		if len(n.Ins) == 1 {
			return o.expand(ins[0], true)
		}
		return none
	case *ralg.Attach:
		pr := o.derive(ins[0])
		pr.cnst = o.with(pr.cnst, n.Col)
		return o.expand(pr, false)
	case *ralg.RowNum:
		pr := o.derive(ins[0])
		switch {
		case n.Mode == ralg.RankSeq && n.Part == "":
			pr.key = o.with(pr.key, n.Out)
			o.addOrd(pr, o.ord(n.Out))
		case n.Mode == ralg.RankSeq:
			o.addGrp(pr, grpOrd{o.ord(n.Out), o.id(n.Part)})
			if ins[0].covers(o.ord(n.Part)) {
				o.addOrd(pr, o.ord(n.Part, n.Out))
			}
		case n.Mode == ralg.RankStream && n.Part != "":
			o.addGrp(pr, grpOrd{o.ord(n.Out), o.id(n.Part)})
		}
		return o.expand(pr, false)
	}
	pr := o.alloc(props{})
	switch n := p.(type) {
	case *ralg.Lit:
		o.litProps(n.Tab, pr)
	case *ralg.LitDecl:
		// declared properties merge with what the table data shows
		// directly; planck verifies each declaration against the rows
		o.litProps(n.Tab, pr)
		for _, ord := range n.Ords {
			o.addOrd(pr, o.ord(ord...))
		}
		for _, g := range n.Grps {
			o.addGrp(pr, grpOrd{o.ord(g.Cols...), o.id(g.Group)})
		}
		pr.key, pr.cnst = o.with(pr.key, n.Key...), o.with(pr.cnst, n.Const...)
	case *ralg.DocRoot:
		pr.key, pr.cnst = o.with(pr.key, "pos"), o.with(pr.cnst, "pos", "item")
		o.addOrd(pr, o.ord("pos"))
	case *ralg.ContextRoot:
		// single row, like DocRoot — but the item is only constant within
		// one execution (it depends on the context document), so it keeps
		// the key/ord properties and not const(item)
		pr.key, pr.cnst = o.with(pr.key, "pos", "item"), o.with(pr.cnst, "pos")
		o.addOrd(pr, o.ord("pos"))
	case *ralg.ParamTable:
		// pos is the position 1..N in the bound sequence; items are
		// arbitrary (bindings may repeat values)
		pr.key = o.with(pr.key, "pos")
		o.addOrd(pr, o.ord("pos"))
	case *ralg.CollectionRoot:
		// pos is the document ordinal 1..N; items are the distinct
		// document roots in (container, pre) — i.e. sorted — order
		pr.key = o.with(pr.key, "pos", "item")
		o.addOrd(pr, o.ord("pos"))
		o.addOrd(pr, o.ord("item"))
	case *ralg.Project:
		in := ins[0]
		m, fan := o.mapping(o.m[:0], n.Cols, false)
		o.m = m
		for _, ord := range in.ords {
			o.mapMulti(ord, m, fan, func(s string) { o.addOrd(pr, s) })
		}
		for _, g := range in.grps {
			for _, d := range m {
				if d.src == g.g {
					o.mapMulti(g.cols, m, fan, func(s string) { o.addGrp(pr, grpOrd{s, d.dst}) })
				}
			}
		}
		pr.key, pr.cnst = carry(pr.key, in.key, m), carry(pr.cnst, in.cnst, m)
	case *ralg.EBV:
		// one row per true group, groups in input order
		if part := o.ord(n.Part); ins[0].covers(part) {
			o.addOrd(pr, part)
		}
		pr.key = o.with(pr.key, n.Part)
	case *ralg.Sort:
		in := ins[0]
		pr.key, pr.cnst = in.key, in.cnst
		if n.Desc == nil {
			o.addOrd(pr, o.ord(n.By...))
		}
		// a stable one-column sort preserves group orderings keyed by
		// that column (within-group order is untouched), and turns every
		// global input ordering into such a group ordering: rows with an
		// equal sort key keep their relative — hence sorted — order
		if len(n.By) == 1 {
			by := o.id(n.By[0])
			for _, g := range in.grps {
				if g.g == by {
					o.addGrp(pr, g)
				}
			}
			for _, ord := range in.ords {
				if ord != "" {
					o.addGrp(pr, grpOrd{ord, by})
				}
			}
		}
	case *ralg.HashJoin:
		lp, rp := ins[0], ins[1]
		lm, rm := o.mappings(n.LCols, n.RCols)
		lk, rk := o.id(n.LKey), o.id(n.RKey)
		// left-major: the left ordering survives (with repetitions)
		for _, ord := range lp.ords {
			mapped := o.mapSeq(o.buf[:0], ord, lm)
			if mapped == "" {
				continue
			}
			// repetitions keep non-strict order; extend with the right
			// ordering when the left key is unique and the matched
			// ordering ends at the key
			if lp.key.has(lk) && last(ord) == lk {
				for _, rord := range rp.ords {
					if rest, ok := strings.CutPrefix(rord, string(rk)); ok {
						o.addOrd(pr, o.mapSeq(append(o.buf[:0], mapped...), rest, rm))
					}
				}
			}
			o.addOrd(pr, mapped)
		}
		// key columns survive on the side whose partner key is unique
		if rp.key.has(rk) {
			pr.key = carry(pr.key, lp.key, lm)
		}
		if lp.key.has(lk) {
			pr.key = carry(pr.key, rp.key, rm)
		}
		pr.cnst = carry(carry(pr.cnst, lp.cnst, lm), rp.cnst, rm)
	case *ralg.Cross:
		lp, rp := ins[0], ins[1]
		lm, rm := o.mappings(n.LCols, n.RCols)
		for _, ord := range lp.ords {
			mapped := o.mapSeq(o.buf[:0], ord, lm)
			if mapped == "" {
				continue
			}
			o.addOrd(pr, mapped)
			// unique left ordering: right order refines it
			if lp.key.has(last(ord)) {
				for _, rord := range rp.ords {
					o.addOrd(pr, o.mapSeq(append(o.buf[:0], mapped...), rord, rm))
				}
			}
		}
		pr.cnst = carry(carry(pr.cnst, lp.cnst, lm), rp.cnst, rm)
	case *ralg.Aggr:
		if part := o.ord(n.Part); ins[0].covers(part) {
			o.addOrd(pr, part)
		}
		pr.key = o.with(pr.key, n.Part)
	case *ralg.Step:
		// (item, iter) order, in count mode one row per iter, ascending;
		// a step emits a subset of its input's iterations
		if n.Count {
			o.addOrd(pr, o.ord("iter"))
			pr.key = o.with(pr.key, "iter")
		} else {
			o.addOrd(pr, o.ord("item", "iter"))
		}
		if ins[0].cnst.has(o.id(n.IterCol)) {
			pr.cnst = o.with(pr.cnst, "iter")
		}
	case *ralg.ExistJoin:
		if n.Count { // one (iter1, count) row per iter1, ascending
			o.addOrd(pr, o.ord(n.Out1))
			pr.key = o.with(pr.key, n.Out1)
		} else {
			o.addOrd(pr, o.ord(n.Out1, n.Out2))
		}
	case *ralg.ElemConstruct:
		// one output row per Loop row, in loop order: ordering and
		// uniqueness of the iter column are inherited from the loop
		// relation (an unconditional key claim would be unsound for a
		// loop with duplicate iterations)
		if iter := o.ord("iter"); ins[0].covers(iter) {
			o.addOrd(pr, iter)
		}
		if ins[0].key.has(o.id("iter")) {
			pr.key = o.with(pr.key, "iter")
		}
	case *ralg.RangeGen:
		if ins[0].covers(o.ord(n.Iter)) {
			o.addOrd(pr, o.ord("iter", "pos"))
		}
		o.addGrp(pr, grpOrd{o.ord("pos"), o.id("iter")})
	}
	return o.expand(pr, false)
}

// expand adds the orderings one expansion step implies: a table sorted
// on [a…g] whose equal-g groups are sorted on [x…] (grpord) is sorted on
// [a…g, x…] — equal-g rows are consecutive there, and subsets preserve
// grpord order. A shared p is copied before anything is added.
func (o *optimizer) expand(p *props, shared bool) *props {
	for i, n := 0, len(p.ords); i < n && len(p.grps) > 0; i++ {
		ord := p.ords[i]
		end := last(ord)
	grps:
		for _, g := range p.grps {
			if g.g != end {
				continue
			}
			for _, e := range p.ords { // is ord+g.cols known?
				if len(e) == len(ord)+len(g.cols) && e[:len(ord)] == ord && e[len(ord):] == g.cols {
					continue grps
				}
			}
			if shared {
				p, shared = o.derive(p), false
			}
			o.addOrd(p, o.str(append(append(o.buf[:0], ord...), g.cols...)))
		}
	}
	return p
}

// colPair is one interned column mapping of a Project or join.
type colPair struct{ src, dst rune }

// mapping appends the interned refs to m; with first set only each
// source's first destination, as a join keeps it. fan reports a source
// with several destinations.
func (o *optimizer) mapping(m []colPair, refs []ralg.ColRef, first bool) (_ []colPair, fan bool) {
	start := len(m)
	for _, r := range refs {
		src := o.id(r.Src)
		if dst(m[start:], src) != 0 {
			if fan = true; first {
				continue
			}
		}
		m = append(m, colPair{src, o.id(r.Dst)})
	}
	return m, fan
}

// mappings interns the left and right column mappings of a join.
func (o *optimizer) mappings(l, r []ralg.ColRef) (lm, rm []colPair) {
	m, _ := o.mapping(o.m[:0], l, true)
	k := len(m)
	o.m, _ = o.mapping(m, r, true)
	return o.m[:k], o.m[k:]
}

// dst is the first destination of src in m, 0 for none.
func dst(m []colPair, src rune) rune {
	for _, d := range m {
		if d.src == src {
			return d.dst
		}
	}
	return 0
}

// carry adds to s the destination of every source in m that from holds.
func carry(s, from colSet, m []colPair) colSet {
	for _, d := range m {
		if from.has(d.src) {
			s = s.with(d.dst)
		}
	}
	return s
}

// mapSeq maps ord's longest prefix whose columns all have a destination
// in m, after the columns spelled in b. A prefix mapped onto itself is
// returned as it is.
func (o *optimizer) mapSeq(b []byte, ord string, m []colPair) string {
	n, same := len(ord), len(b) == 0
	for i, c := range ord {
		d := dst(m, c)
		if d == 0 {
			n = i
			break
		}
		same = same && d == c
		b = utf8.AppendRune(b, d)
	}
	if same {
		return ord[:n]
	}
	return o.str(b)
}

// mapMulti maps an ordering through a projection that may copy a column
// under several names (fan), adding one mapped ordering per alias
// combination prefix (aliases beyond the first are only followed for
// single columns to bound the fan-out; duplicated sort columns are rare
// and short). Empty results are dropped.
func (o *optimizer) mapMulti(ord string, m []colPair, fan bool, add func(string)) {
	if !fan {
		if s := o.mapSeq(o.buf[:0], ord, m); s != "" {
			add(s)
		}
		return
	}
	outs := []string{""}
	for _, c := range ord {
		var next []string
		for _, prefix := range outs {
			for _, d := range m {
				if d.src == c {
					next = append(next, prefix+string(d.dst))
				}
			}
		}
		if len(next) == 0 {
			break
		}
		if outs = next; len(outs) > 8 {
			break
		}
	}
	for _, s := range outs {
		if s != "" {
			add(s)
		}
	}
}

// litProps inspects a literal table directly (they are tiny: loop seeds
// and empty relations).
func (o *optimizer) litProps(t *ralg.Table, pr *props) {
	for _, name := range t.Names() {
		c := t.Col(name)
		if tag, uniform := c.Uniform(); !uniform || tag != xqt.KInt {
			continue
		}
		sorted, uniq := true, true
		for i, v := range c.I {
			sorted = sorted && (i == 0 || v >= c.I[i-1])
			uniq = uniq && (i == 0 || v != c.I[i-1])
		}
		id := o.id(name)
		if sorted {
			o.addOrd(pr, o.ord(name))
		}
		if sorted && uniq {
			pr.key = pr.key.with(id)
		}
		if t.N <= 1 {
			pr.cnst = pr.cnst.with(id)
		}
	}
}
