package ralg

import (
	"cmp"
	"math/bits"
	"slices"

	"mxq/internal/xqt"
)

// atoms materializes the per-row atomization of a column as items (the
// per-pair fallback of the existential joins).
func (e *Exec) atoms(c *Col) []xqt.Item {
	e.charge(scratchRegion, int64(c.Len())*itemBytes)
	return e.cast(FunAtomize, c).Slice()
}

// cmpDomain is the domain xqt.Compare promotes a pair of atoms to.
type cmpDomain uint8

const (
	domPerPair cmpDomain = iota // the pairs of the two columns do not share one domain
	domBool
	domDouble
	domString
)

// atomKinds returns the set of kinds (one bit per xqt.Kind) the rows of
// c have once atomized: nodes become xs:untypedAtomic.
func atomKinds(c *Col) (set uint8) {
	switch c.Kind {
	case KInt:
		return 1 << xqt.KInt
	case KBool:
		return 1 << xqt.KBool
	}
	tags := c.Item.Tags
	if tags == nil {
		tags = []xqt.Kind{c.Item.Tag}
	}
	for _, k := range tags {
		if k >= xqt.KNode {
			k = xqt.KUntyped
		}
		set |= 1 << k
	}
	return set
}

// joinDomain is the promotion table of xqt.Compare lifted from a pair
// of atoms to a pair of columns: a boolean operand makes the comparison
// boolean, else a numeric operand makes it xs:double (untypedAtomic and
// string operands are cast), else it compares strings. When every
// (left kind, right kind) pair lands in one domain, each column casts
// to that domain once per row and the typed kernels run; otherwise the
// join compares pair by pair.
func joinDomain(l, r uint8) cmpDomain {
	const boolean, numeric = 1 << xqt.KBool, 1<<xqt.KInt | 1<<xqt.KDouble
	switch {
	case l == boolean || r == boolean:
		return domBool
	case (l|r)&boolean != 0:
		return domPerPair
	case l&^numeric == 0 || r&^numeric == 0:
		return domDouble
	case (l|r)&numeric == 0:
		return domString
	}
	return domPerPair
}

// existKeys casts column c to the comparison keys of domain dom, once
// per row: xs:double values (booleans as 0/1) or strings. The casts are
// the fn:number and fn:string kernels, whatever the column's tag mix.
func (e *Exec) existKeys(c *Col, dom cmpDomain) ([]float64, []string) {
	switch dom {
	case domDouble:
		return e.cast(FunNumber, c).F, nil
	case domString:
		return nil, e.cast(FunStringOf, c).S
	}
	f, atoms := zeroed[float64](e, outRegion, c.Len()), e.cast(FunAtomize, c)
	for i := range f {
		if xqt.Compare(atoms.At(i), xqt.Bool(true), xqt.CmpEq) { // the cast to xs:boolean, as Compare applies it
			f[i] = 1
		}
	}
	return f, nil
}

// execExistJoin evaluates the existential general-comparison join. Both
// inputs resolve to raw xs:double or string key vectors in the one
// domain xqt.Compare promotes their kinds to (see joinDomain), and the
// join kernels below run over those raw vectors.
func (e *Exec) execExistJoin(n *ExistJoin, l, r *Table) (*Table, error) {
	liter := l.Ints(n.LIter)
	riter := r.Ints(n.RIter)
	lc, rc := l.Col(n.LItem), r.Col(n.RItem)
	dom := joinDomain(atomKinds(lc), atomKinds(rc))

	var p1, p2 []int64
	switch {
	case dom == domPerPair || n.Cmp == xqt.CmpNe:
		// per-pair promotion via nested loop
		latoms, ratoms := e.atoms(lc), e.atoms(rc)
		e.Stats.ThetaNL++
		for i := range latoms {
			if i&255 == 255 && e.stopRequested() {
				break
			}
			for j := range ratoms {
				if xqt.Compare(latoms[i], ratoms[j], n.Cmp) {
					p1, p2 = append(grown(e, p1, 1), liter[i]), append(grown(e, p2, 1), riter[j])
				}
			}
		}
		p1, p2 = dedupPairs(e, p1, p2)
		p1, p2 = settle(e, p1), settle(e, p2)
	default:
		lf, ls := e.existKeys(lc, dom)
		rf, rs := e.existKeys(rc, dom)
		if dom == domString {
			p1, p2 = existTypedJoin(e, n, liter, ls, riter, rs)
		} else {
			p1, p2 = existTypedJoin(e, n, liter, lf, riter, rf)
		}
	}
	out := NewTable([]string{n.Out1, n.Out2}, []ColKind{KInt, KInt})
	out.N = len(p1)
	out.Col(n.Out1).Int = p1
	out.Col(n.Out2).Int = p2
	return out, nil
}

// existTypedJoin runs the typed kernel for n.Cmp over key vectors of
// one comparison domain.
func existTypedJoin[T float64 | string](e *Exec, n *ExistJoin, liter []int64, lv []T, riter []int64, rv []T) (p1, p2 []int64) {
	if n.Cmp != xqt.CmpEq {
		// Figure 8(b): under existential semantics an ordering
		// comparison only needs each iteration's extremum, so both
		// sides reduce to one row per iter before the join.
		e.Stats.ExistAggr++
		lmax := n.Cmp == xqt.CmpGt || n.Cmp == xqt.CmpGe
		liter, lv = reduceExtremum(e, liter, lv, lmax)
		riter, rv = reduceExtremum(e, riter, rv, !lmax)
		return existThetaJoin(e, n, liter, lv, riter, rv)
	}
	e.Stats.HashJoins++
	return existHashJoin(e, liter, lv, riter, rv)
}

// reduceExtremum keeps one row per iter: the minimum (max=false) or
// maximum (max=true) value. Input iters are clustered (the inputs are
// [iter, pos] sorted); the output keeps one row per cluster in input
// order. NaN satisfies no comparison, so it is skipped, and an iter
// with nothing but NaN drops out.
func reduceExtremum[T float64 | string](e *Exec, iters []int64, vals []T, max bool) ([]int64, []T) {
	oi, ov, o := dirty[int64](e, scratchRegion, len(vals)), dirty[T](e, scratchRegion, len(vals)), 0
	open := false // the current cluster has its output row
	for i, v := range vals {
		if i > 0 && iters[i] != iters[i-1] {
			open = false
		}
		if v != v {
			continue
		}
		if !open {
			oi[o], ov[o], open = iters[i], v, true
			o++
		} else if best := &ov[o-1]; (max && *best < v) || (!max && v < *best) {
			*best = v
		}
	}
	return oi[:o], ov[:o]
}

// existHashJoin evaluates an existential eq join over raw key vectors:
// hash the right input by value (NaN joins nothing, -0 joins +0), probe
// in left order, and eliminate duplicate (iter1, iter2) pairs per
// left-iteration run (the merge-style δ of §4.2).
func existHashJoin[T float64 | string](e *Exec, liter []int64, lv []T, riter []int64, rv []T) (p1, p2 []int64) {
	e.charge(scratchRegion, 32*int64(len(rv))) // the build table hashes the whole right input
	ht := make(map[T][]int64, len(rv))
	for j, v := range rv {
		if v == v {
			ht[v] = append(ht[v], riter[j])
		}
	}
	for i, v := range lv {
		for _, i2 := range ht[v] {
			p1, p2 = append(grown(e, p1, 1), liter[i]), append(grown(e, p2, 1), i2)
		}
	}
	p1, p2 = dedupPairs(e, p1, p2)
	return settle(e, p1), settle(e, p2) // the lists grew in scratch
}

// thetaHolds applies an ordering comparison to two promoted keys.
func thetaHolds[T float64 | string](a, b T, op xqt.CmpOp) bool {
	switch op {
	case xqt.CmpLt:
		return a < b
	case xqt.CmpLe:
		return a <= b
	case xqt.CmpGt:
		return a > b
	}
	return a >= b
}

// existThetaJoin evaluates <, <=, >, >= over the promoted comparison
// keys of two extremum-reduced (one row per iter, NaN-free) sides, and
// emits the pairs in [iter1, iter2] order without sorting them. A
// transient index orders the right rows so that the matches of any left
// row are a prefix perm[:cut] of it (binary search; the output is sized
// exactly). The index delivers value order where the output wants iter2
// order, so the emission sweeps in rank space: right rows are numbered
// by ascending iter2, left rows are visited by ascending cut, and a
// bitmap over the ranks only ever gains the rows perm newly admits; each
// left row then writes its set bits, in rank order, into the slot its
// prefix-summed cut fixed. O(nl + nr·log nr + nl·nr/64 + pairs).
func existThetaJoin[T float64 | string](e *Exec, n *ExistJoin, liter []int64, lv []T, riter []int64, rv []T) (p1, p2 []int64) {
	nl, nr := len(liter), len(riter)
	e.Stats.ThetaIdx++
	// rank = row number once the right side ascends on iter2: under the
	// [iter, pos] contract it does, and SortIdx says so (nil)
	rt := &Table{N: nr, names: []string{"iter"}, cols: []Col{{Kind: KInt, Int: riter}}}
	ord := e.SortIdx(rt, rt.names, nil, 0)
	if ord != nil {
		riter, rv = gatherOf(e, scratchRegion, riter, ord), gatherOf(e, scratchRegion, rv, ord)
	}
	perm := identity(e, nr)
	lmax := n.Cmp == xqt.CmpGt || n.Cmp == xqt.CmpGe
	slices.SortFunc(perm, func(a, b int32) int {
		if !lmax {
			a, b = b, a
		}
		return cmp.Compare(rv[a], rv[b])
	})
	// row i matches perm[:cut[i]]; start[c] counts, then places, the left
	// rows with cut c (the counting sort behind the visiting order)
	cut := dirty[int32](e, scratchRegion, nl)
	start := zeroed[int32](e, scratchRegion, nr+2)
	for i := range cut {
		c, hi := 0, nr
		for c < hi { // sort.Search, minus a closure call per probe
			if m := (c + hi) >> 1; thetaHolds(lv[i], rv[perm[m]], n.Cmp) {
				c = m + 1
			} else {
				hi = m
			}
		}
		cut[i] = int32(c)
		start[c+1]++
	}
	for c := 1; c < len(start); c++ {
		start[c] += start[c-1]
	}
	visit, off, total := dirty[int32](e, scratchRegion, nl), dirty[int64](e, scratchRegion, nl), int64(0)
	for i, c := range cut {
		visit[start[c]], off[i], total = int32(i), total, total+int64(c)
		start[c]++
	}
	// a dense theta join approaches nl*nr pairs: the budget refuses them here
	p1, p2 = dirty[int64](e, outRegion, int(total)), dirty[int64](e, outRegion, int(total))
	ranks, admitted := zeroed[uint64](e, scratchRegion, (nr+63)/64), 0
	for k, i := range visit {
		if k&255 == 255 && e.stopRequested() {
			return nil, nil
		}
		for ; admitted < int(cut[i]); admitted++ {
			ranks[perm[admitted]>>6] |= 1 << (perm[admitted] & 63)
		}
		o := off[i]
		fillWith(p1[o:o+int64(cut[i])], liter[i])
		for w, word := range ranks {
			if word == ^uint64(0) {
				o += int64(copy(p2[o:], riter[w<<6:w<<6+64]))
				continue
			}
			for ; word != 0; word &= word - 1 {
				p2[o] = riter[w<<6+bits.TrailingZeros64(word)]
				o++
			}
		}
	}
	// reduced sides have unique iters and the right one ascends by now:
	// when the left does too, the pairs are unique and in [iter1, iter2] order
	if !int64sNonDecreasing(liter) {
		p1, p2 = dedupPairs(e, p1, p2)
	}
	e.Stats.ThetaPairs += int64(len(p1))
	return p1, p2
}

// dedupPairs removes duplicate (iter1, iter2) pairs and establishes
// [iter1, iter2] order, in place. Inputs that are already iter1-ordered
// (the common case: probes in left order) are deduplicated with a
// per-run merge; otherwise the pairs are sorted first.
func dedupPairs(e *Exec, p1, p2 []int64) ([]int64, []int64) {
	if !int64sNonDecreasing(p1) {
		idx := identity(e, len(p1))
		slices.SortFunc(idx, func(a, b int32) int {
			return cmp.Or(cmp.Compare(p1[a], p1[b]), cmp.Compare(p2[a], p2[b]))
		})
		copy(p1, gatherOf(e, scratchRegion, p1, idx))
		copy(p2, gatherOf(e, scratchRegion, p2, idx))
	}
	o := 0
	for start, end := 0, 0; start < len(p1); start = end {
		cur := p1[start]
		for end = start + 1; end < len(p1) && p1[end] == cur; end++ {
		}
		run := p2[start:end]
		slices.Sort(run)
		// o never passes the row being read, so compacting in place is safe
		for k, v := range run {
			if k == 0 || v != run[k-1] {
				p1[o], p2[o] = cur, v
				o++
			}
		}
	}
	return p1[:o], p2[:o]
}
