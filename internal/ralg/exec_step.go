package ralg

import (
	"fmt"
	"slices"

	"mxq/internal/scj"
	"mxq/internal/store"
	"mxq/internal/xqt"
)

// stepInputSorted verifies the (item, iter) sort contract of Step inputs
// on the keys of the sort that establishes it.
func (e *Exec) stepInputSorted(in *Table, item, iter string) bool {
	by := []string{item, iter}
	return rawSorted(in, by, nil) || keysSorted(e.sortKeys(in, by, nil, 0), in.N)
}

// stepSeg is one container's run [lo, hi) of Step input nodes.
type stepSeg struct {
	cont   int32
	lo, hi int
}

// stepSegments cuts the (item, iter)-sorted Step input into per-container
// runs, skipping atoms (which sort first). With a sharded collection each
// shard is one segment.
func stepSegments(items *ItemVec) []stepSeg {
	var segs []stepSeg
	for i := 0; i < items.Len(); {
		if k := items.KindAt(i); k != xqt.KNode && k != xqt.KAttr {
			i++
			continue
		}
		j := i + 1
		for j < items.Len() && items.Cont[j] == items.Cont[i] {
			j++
		}
		segs = append(segs, stepSeg{cont: items.Cont[i], lo: i, hi: j})
		i = j
	}
	return segs
}

// stepSegRun evaluates one segment: the blocks of its result and, when
// that holds attributes, every pair's kind. Self filters the rows in
// place: a tree node passes the node test, an attribute passes node().
// Every other axis runs the segment's tree-node rows through
// scj.StepBlocks; attribute rows resolve through their owners
// (ownerAxes, the results merged into the kernel's pairs, duplicates
// dropped). A context row equal to its predecessor is skipped. In count
// mode a segment of tree nodes only is counted into counts by
// scj.CountStep and yields no blocks.
func (e *Exec) stepSegRun(n *Step, iters []int64, items *ItemVec, s stepSeg, st *scj.Stats, counts []int64) (scj.Blocks, []xqt.Kind) {
	c := e.Pool.Get(s.cont)
	test := scj.CompileTest(c, n.Test)
	dup := func(i int) bool {
		return i > s.lo && items.I[i] == items.I[i-1] && iters[i] == iters[i-1] && items.KindAt(i) == items.KindAt(i-1)
	}
	// the context relation: the run's tree-node rows narrowed to the
	// document's int32 encoding, in scratch memory; the owners of its
	// attribute rows as packed (pre, iter) pairs
	ctx := scj.Pairs{Pre: dirty[int32](e, scratchRegion, s.hi-s.lo), Iter: dirty[int32](e, scratchRegion, s.hi-s.lo)}
	if n.Axis == scj.Self { // counted as the kernel counts: a touch per row, the matches emitted
		kinds := dirty[xqt.Kind](e, scratchRegion, s.hi-s.lo)[:0]
		for i := s.lo; i < s.hi; i++ {
			if kind, x := items.KindAt(i), int32(items.I[i]); !dup(i) && (kind == xqt.KAttr && n.Test.Kind == scj.TestNode || kind == xqt.KNode && test(x)) {
				ctx.Pre[len(kinds)], ctx.Iter[len(kinds)], kinds = x, int32(iters[i]), append(kinds, kind)
			}
		}
		st.Touched, st.Emitted = st.Touched+int64(s.hi-s.lo), st.Emitted+int64(len(kinds))
		out := scj.Pairs{Pre: ctx.Pre[:len(kinds)], Iter: ctx.Iter[:len(kinds)]}
		if !slices.Contains(kinds, xqt.KAttr) {
			kinds = nil
		}
		return scj.Blocks{Segs: []scj.Pairs{out}}, kinds
	}
	var owners []uint64
	var selves []int // attribute rows in their own result, in (item, iter) order as the input
	orSelf := n.Test.Kind == scj.TestNode && (n.Axis == scj.AncestorOrSelf || n.Axis == scj.DescendantOrSelf)
	k := 0
	for i := s.lo; i < s.hi; i++ {
		x, it := int32(items.I[i]), int32(iters[i])
		if dup(i) {
			continue
		}
		if items.KindAt(i) != xqt.KAttr {
			ctx.Pre[k], ctx.Iter[k] = x, it
			k++
			continue
		}
		if ownerAxes[n.Axis] != nil {
			owners = append(grown(e, owners, 1), uint64(c.AttrOwner[x])<<32|uint64(uint32(it)))
		}
		if orSelf {
			selves = append(grown(e, selves, 1), i)
		}
	}
	ctx.Pre, ctx.Iter = ctx.Pre[:k], ctx.Iter[:k]
	if n.Count && len(owners) == 0 && len(selves) == 0 {
		scj.CountStep(c, ctx, n.Axis, n.Test, n.Variant, st, counts)
		return scj.Blocks{}, nil
	}
	blocks := scj.StepBlocks(c, ctx, n.Axis, n.Test, n.Variant, st)
	if len(owners) == 0 && len(selves) == 0 {
		return blocks, nil
	}
	res := blocks.Pairs(st)
	if len(owners) > 0 {
		slices.Sort(owners)
		owners = slices.Compact(owners)
		op := scj.Pairs{Pre: dirty[int32](e, scratchRegion, len(owners)), Iter: dirty[int32](e, scratchRegion, len(owners))}
		for r, key := range owners {
			op.Pre[r], op.Iter[r] = int32(key>>32), int32(uint32(key))
		}
		for _, ax := range ownerAxes[n.Axis] {
			res = scj.MergePairs(res, scj.Step(c, op, ax, n.Test, n.Variant, st))
		}
	}
	if len(selves) == 0 {
		return scj.Blocks{Segs: []scj.Pairs{res}}, nil
	}
	// an attribute follows its owner element and precedes the owner's
	// first child in document order
	out := scj.Pairs{Pre: dirty[int32](e, scratchRegion, res.Len()+len(selves)), Iter: dirty[int32](e, scratchRegion, res.Len()+len(selves))}
	kinds := dirty[xqt.Kind](e, scratchRegion, out.Len())
	for o, r, j := 0, 0, 0; o < out.Len(); o++ {
		if j < len(selves) && (r == res.Len() || c.AttrOwner[items.I[selves[j]]] < res.Pre[r]) {
			out.Pre[o], out.Iter[o], kinds[o] = int32(items.I[selves[j]]), int32(iters[selves[j]]), xqt.KAttr
			j++
		} else {
			out.Pre[o], out.Iter[o], kinds[o] = res.Pre[r], res.Iter[r], xqt.KNode
			r++
		}
	}
	st.Emitted += int64(len(selves))
	return scj.Blocks{Segs: []scj.Pairs{out}}, kinds
}

// ownerAxes are the steps that answer an axis for an attribute row from
// its owner element: the owner is its parent, the owner's
// ancestors-or-self are its ancestors, and since it sits right after its
// owner, it is followed by the owner's descendants and following nodes
// and preceded by the owner's preceding ones. Its other axes are empty
// but for itself on self and, under node(), on ancestor-or-self and
// descendant-or-self.
var ownerAxes = map[scj.Axis][]scj.Axis{
	scj.Parent: {scj.Self}, scj.Ancestor: {scj.AncestorOrSelf}, scj.AncestorOrSelf: {scj.AncestorOrSelf},
	scj.Following: {scj.Descendant, scj.Following}, scj.Preceding: {scj.Preceding},
}

func (e *Exec) execStep(n *Step, in *Table) (*Table, error) {
	iters := in.Ints(n.IterCol)
	items := in.Col(n.ItemCol)
	if !e.stepInputSorted(in, n.ItemCol, n.IterCol) {
		return nil, fmt.Errorf("ralg: step(%v) input not sorted on (item, iter): plan misses a sort", n.Axis)
	}
	var counts []int64
	if n.Count && in.N > 0 { // one counter per iteration number, in scratch memory
		counts = zeroed[int64](e, scratchRegion, int(slices.Max(iters))+1)
	}
	if n.Axis == scj.Attribute {
		if out := e.attrStep(n, iters, items, counts); !n.Count {
			return out, nil
		}
		return e.countTable(counts), nil
	}
	segs := stepSegments(items)
	results := make([]scj.Blocks, len(segs))
	kinds := make([][]xqt.Kind, len(segs))
	defer func() {
		for k := range results {
			results[k].Release() // the blocks go back to the pool on every path
		}
	}()
	st := scj.Stats{Stop: e.stopFunc()}
	if e.Mem != nil {
		// the emitter's blocks go back to their pool when the step ends:
		// operator-lifetime bytes
		st.Charge = func(n int64) bool { return e.metered(scratchRegion, n) }
	}
	// concatenating the container runs' outputs in segment order keeps
	// the (item, iter) order across containers
	for k := range segs {
		if e.stopRequested() {
			break // RunSchedule's post-operator checkpoint discards the partial table
		}
		results[k], kinds[k] = e.stepSegRun(n, iters, items, segs[k], &st, counts)
	}
	e.Stats.Step.Touched += st.Touched
	e.Stats.Step.Emitted += st.Emitted
	e.Stats.Step.Pruned += st.Pruned
	if n.Count { // the segments that kept their pairs are counted here
		for k := range results {
			for _, seg := range results[k].Segs {
				for _, it := range seg.Iter {
					counts[it]++
				}
			}
		}
		return e.countTable(counts), nil
	}
	// the pair segments of all container runs with their output offsets;
	// kinds is nil for a piece of tree nodes
	type piece struct {
		scj.Pairs
		kinds []xqt.Kind
		cont  int32
		base  int
	}
	var pieces []piece
	total, attrs := 0, false
	for k := range results {
		for _, seg := range results[k].Segs {
			pieces = append(pieces, piece{seg, kinds[k], segs[k].cont, total})
			total += seg.Len()
		}
		attrs = attrs || kinds[k] != nil
	}
	// the emitter charged 8 B per pair as each block filled, so a runaway
	// step aborts mid-emission; the 20 B per row of the widened columns
	// are refused here, before they are allocated
	ic, tc := e.uniformVec(xqt.KInt, total), e.uniformVec(xqt.KNode, total)
	if attrs {
		tc.Tags = dirty[xqt.Kind](e, outRegion, total)
	}
	// the single copy of the step result: block pairs widen straight into
	// the output columns
	for _, pc := range pieces {
		ii, cc, pp := ic.I[pc.base:], tc.Cont[pc.base:], tc.I[pc.base:]
		for r, pre := range pc.Pre {
			ii[r], cc[r], pp[r] = int64(pc.Iter[r]), pc.cont, int64(pre)
		}
		if pc.kinds != nil {
			copy(tc.Tags[pc.base:], pc.kinds)
		} else if attrs {
			fillWith(tc.Tags[pc.base:pc.base+pc.Len()], xqt.KNode)
		}
	}
	return tableOf([]string{"iter", "item"}, ic, tc), nil
}

// countTable is a count-mode Step's output: an (iter, xs:integer) row
// per iteration with a nonzero count, in iteration order.
func (e *Exec) countTable(counts []int64) *Table {
	var ic, vc []int64
	for it, k := range counts {
		if k > 0 {
			ic, vc = append(grown(e, ic, 1), int64(it)), append(grown(e, vc, 1), k)
		}
	}
	return tableOf([]string{"iter", "item"}, uniformIntCol(settle(e, ic)), uniformIntCol(settle(e, vc)))
}

// attrStep resolves the attribute axis for every input row. The (iter,
// container, attribute row) lists grow in scratch memory; in count mode
// each result only adds to counts.
func (e *Exec) attrStep(n *Step, iters []int64, items *ItemVec, counts []int64) *Table {
	var ic []int64
	var tc []int32
	var ta []int64
	end := items.Len()
	if n.Test.Kind != scj.TestNode && n.Test.Kind != scj.TestElem {
		end = 0 // only a name test, * and node() match attributes
	}
	// the test's name as an id of the container the attributes live in,
	// looked up once per container: -1 matches any name, -2 none
	var nc *store.Container
	want := int32(-1)
	i := 0
	runs := 0
	for i < end {
		runs++
		if runs&4095 == 4095 && e.stopRequested() {
			break // the caller's partial output is discarded at RunSchedule's checkpoint
		}
		if items.KindAt(i) != xqt.KNode {
			i++
			continue
		}
		// group the run of identical context nodes so the output stays
		// (attribute, iter)-ordered
		j := i
		for j < end && items.KindAt(j) == xqt.KNode &&
			items.Cont[j] == items.Cont[i] && items.I[j] == items.I[i] {
			j++
		}
		c := e.Pool.Get(items.Cont[i])
		pre := int32(items.I[i])
		if c.Kind[pre] == store.KindElem {
			ac, alo, ahi := c.Attrs(pre)
			if ac != nc && n.Test.Name != "" {
				nc, want = ac, -2
				if id, ok := ac.Names.Lookup(n.Test.Name); ok {
					want = id
				}
			}
			for a := alo; a < ahi; a++ {
				if want != -1 && ac.AttrName[a] != want {
					continue
				}
				for k := i; k < j; k++ {
					if k > i && iters[k] == iters[k-1] {
						continue // a duplicate context row
					} else if n.Count {
						counts[iters[k]]++
						continue
					}
					ic, tc, ta = append(grown(e, ic, 1), iters[k]), append(grown(e, tc, 1), ac.ID), append(grown(e, ta, 1), int64(a))
				}
			}
		}
		i = j
	}
	return tableOf([]string{"iter", "item"}, uniformIntCol(settle(e, ic)), ItemVec{Tag: xqt.KAttr, n: len(ic), Cont: settle(e, tc), I: settle(e, ta)})
}
