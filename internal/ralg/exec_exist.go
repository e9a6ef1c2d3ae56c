package ralg

import (
	"cmp"
	"hash/maphash"
	"math/bits"
	"slices"

	"mxq/internal/xqt"
)

// atoms materializes the per-row atomization of a column as items (the
// per-pair fallback of the existential joins).
func (e *Exec) atoms(c *ItemVec) []xqt.Item {
	e.charge(scratchRegion, int64(c.Len())*itemBytes)
	return e.cast(FunAtomize, c).Slice()
}

// cmpDomain is the domain xqt.Compare promotes a pair of atoms to.
type cmpDomain uint8

const (
	domPerPair cmpDomain = iota // the pairs of the two columns do not share one domain
	domBool
	domInt
	domDouble
	domString
)

// atomKinds returns the set of kinds (one bit per xqt.Kind) the rows of
// c have once atomized: nodes become xs:untypedAtomic.
func atomKinds(c *ItemVec) (set uint8) {
	tags := c.Tags
	if tags == nil {
		tags = []xqt.Kind{c.Tag}
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
// boolean, two xs:integer operands stay exact, else a numeric operand
// makes it xs:double (untypedAtomic and string operands are cast), else
// it compares strings. When every (left kind, right kind) pair lands in
// one domain, each column casts to that domain once per row and the
// typed kernels run; otherwise the join compares pair by pair.
func joinDomain(l, r uint8) cmpDomain {
	const boolean, integer, numeric = 1 << xqt.KBool, 1 << xqt.KInt, 1<<xqt.KInt | 1<<xqt.KDouble
	switch {
	case l == boolean || r == boolean:
		return domBool
	case (l|r)&boolean != 0:
		return domPerPair
	case l == integer && r == integer:
		return domInt
	case l&^numeric == 0 || r&^numeric == 0:
		return domDouble
	case (l|r)&numeric == 0:
		return domString
	}
	return domPerPair
}

// roundsInts reports whether both columns hold xs:integer rows and one
// of those is past ±2^53, where xs:double would round an integer pair
// that xqt.Compare compares exactly.
func roundsInts(l, r *ItemVec) bool {
	past := func(c *ItemVec) bool {
		for i, x := range c.I {
			if c.KindAt(i) == xqt.KInt && (x > 1<<53 || x < -(1<<53)) {
				return true
			}
		}
		return false
	}
	return l.has(xqt.KInt) && r.has(xqt.KInt) && (past(l) || past(r))
}

// existKeys casts column c to domain dom's comparison keys once per
// row: int64 (booleans as 0/1), xs:double or strings, through the
// fn:number and fn:string kernels whatever the column's tag mix.
func (e *Exec) existKeys(c *ItemVec, dom cmpDomain) vecView {
	switch dom {
	case domInt: // every row is an xs:integer: the I payload holds them all
		return vecView{tag: xqt.KInt, i: c.I}
	case domDouble:
		return vecView{tag: xqt.KDouble, f: e.cast(FunNumber, c).F}
	case domString:
		return vecView{tag: xqt.KString, s: e.cast(FunStringOf, c).S}
	}
	i, atoms := dirty[int64](e, outRegion, c.Len()), e.cast(FunAtomize, c)
	for r := range i { // the cast to xs:boolean, as Compare applies it
		i[r] = b2i(xqt.Compare(atoms.At(r), xqt.Bool(true), xqt.CmpEq))
	}
	return vecView{tag: xqt.KBool, i: i}
}

// execExistJoin evaluates the existential general-comparison join. Both
// inputs resolve to raw int64, xs:double or string key vectors in the
// one domain xqt.Compare promotes their kinds to (see joinDomain), and
// the join kernels below run over those raw vectors.
func (e *Exec) execExistJoin(n *ExistJoin, l, r *Table) (*Table, error) {
	liter := l.Ints(n.LIter)
	riter := r.Ints(n.RIter)
	lc, rc := l.Col(n.LItem), r.Col(n.RItem)
	dom := joinDomain(atomKinds(lc), atomKinds(rc))
	if dom == domDouble && roundsInts(lc, rc) {
		dom = domPerPair // Compare keeps an xs:integer pair exact
	}

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
		p1, p2 = dedupPairs(e, p1, p2, n.Count)
		p1, p2 = settle(e, p1), settle(e, p2)
	case dom == domString:
		p1, p2 = existTypedJoin(e, n, liter, e.existKeys(lc, dom).s, riter, e.existKeys(rc, dom).s)
	case dom == domDouble:
		p1, p2 = existTypedJoin(e, n, liter, e.existKeys(lc, dom).f, riter, e.existKeys(rc, dom).f)
	default:
		p1, p2 = existTypedJoin(e, n, liter, e.existKeys(lc, dom).i, riter, e.existKeys(rc, dom).i)
	}
	return tableOf([]string{n.Out1, n.Out2}, uniformIntCol(p1), uniformIntCol(p2)), nil
}

// existTypedJoin runs the typed kernel for n.Cmp over key vectors of
// one comparison domain.
func existTypedJoin[T cmp.Ordered](e *Exec, n *ExistJoin, liter []int64, lv []T, riter []int64, rv []T) (p1, p2 []int64) {
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
	e.Stats.ExistHashJoins++
	return existHashJoin(e, liter, lv, riter, rv, n.Count)
}

// reduceExtremum keeps one row per iter: the minimum (max=false) or
// maximum (max=true) value. Input iters are clustered (the inputs are
// [iter, pos] sorted); the output keeps one row per cluster in input
// order. NaN satisfies no comparison, so it is skipped, and an iter
// with nothing but NaN drops out.
func reduceExtremum[T cmp.Ordered](e *Exec, iters []int64, vals []T, max bool) ([]int64, []T) {
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
// chain the right input by value (NaN joins nothing, -0 joins +0), probe
// in left order, and eliminate duplicate (iter1, iter2) pairs per
// left-iteration run (the merge-style δ of §4.2); count keeps each run's
// length instead.
func existHashJoin[T cmp.Ordered](e *Exec, liter []int64, lv []T, riter []int64, rv []T, count bool) (p1, p2 []int64) {
	lc, ht := keyCodes(e, lv), newKeyTable(e, keyCodes(e, rv), true)
	for i, v := range lv {
		for j := ht.first(lc[i]); j != 0 && v == v; j = ht.next[j-1] { // a NaN's chain holds every NaN
			if rv[j-1] == v {
				p1, p2 = append(grown(e, p1, 1), liter[i]), append(grown(e, p2, 1), riter[j-1])
			}
		}
	}
	p1, p2 = dedupPairs(e, p1, p2, count)
	return settle(e, p1), settle(e, p2) // the lists grew in scratch
}

// keyCodes returns the key-table codes of an existential join's keys: a
// number's is its sort key (intKey, floatKey: -0 and +0 share one), so a
// dense integer range stays dense; a string's is its hash.
func keyCodes[T cmp.Ordered](e *Exec, vals []T) []uint64 {
	codes := dirty[uint64](e, scratchRegion, len(vals))
	ints, _ := any(vals).([]int64) // vals is one of the three
	floats, _ := any(vals).([]float64)
	strs, _ := any(vals).([]string)
	for i, x := range ints {
		codes[i] = intKey(x)
	}
	for i, x := range floats {
		codes[i] = floatKey(x)
	}
	for i, x := range strs {
		codes[i] = maphash.String(keySeed, x)
	}
	return codes
}

// thetaHolds applies an ordering comparison to two promoted keys.
func thetaHolds[T cmp.Ordered](a, b T, op xqt.CmpOp) bool {
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
//
// In count mode the binary search is the whole join: left row i has the
// cut[i] partners perm[:cut[i]], one per right row, and when both sides
// hold unique iters those are cut[i] distinct iter2. O(nl·log nr +
// nr·log nr), whatever the number of pairs.
func existThetaJoin[T cmp.Ordered](e *Exec, n *ExistJoin, liter []int64, lv []T, riter []int64, rv []T) (p1, p2 []int64) {
	nl, nr := len(liter), len(riter)
	e.Stats.ThetaIdx++
	// rank = row number once the right side ascends on iter2: under the
	// [iter, pos] contract it does, and SortIdx says so (nil)
	rt := tableOf([]string{"iter"}, uniformIntCol(riter))
	ord := e.SortIdx(rt, rt.names, nil, 0)
	if ord != nil {
		riter, rv = gatherOf(e, scratchRegion, riter, ord), gatherOf(e, scratchRegion, rv, ord)
	}
	// reduced sides of clustered inputs have unique iters: when both
	// ascended, the pairs are unique and come in [iter1, iter2] order
	uniq := ord == nil && slices.IsSorted(liter)
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
	if n.Count && uniq {
		p1, p2 = dirty[int64](e, outRegion, nl), dirty[int64](e, outRegion, nl)
		o := 0
		for i, c := range cut {
			if c > 0 {
				p1[o], p2[o] = liter[i], int64(c)
				o++
			}
		}
		return p1[:o], p2[:o]
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
	if !uniq {
		p1, p2 = dedupPairs(e, p1, p2, n.Count)
	}
	if !n.Count {
		e.Stats.ThetaPairs += int64(len(p1))
	}
	return p1, p2
}

// dedupPairs removes duplicate (iter1, iter2) pairs and establishes
// [iter1, iter2] order, in place. Inputs that are already iter1-ordered
// (the common case: probes in left order) are deduplicated with a
// per-run merge; otherwise the pairs are sorted first. count keeps one
// (iter1, number of distinct iter2) row per iter1 instead.
func dedupPairs(e *Exec, p1, p2 []int64, count bool) ([]int64, []int64) {
	if !slices.IsSorted(p1) {
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
		first := o
		for k, v := range run {
			if k == 0 || v != run[k-1] {
				p1[o], p2[o] = cur, v
				o++
			}
		}
		if count {
			p2[first], o = int64(o-first), first+1
		}
	}
	return p1[:o], p2[:o]
}
