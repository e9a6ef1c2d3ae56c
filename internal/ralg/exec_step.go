package ralg

import (
	"fmt"
	"slices"
	"strings"

	"mxq/internal/scj"
	"mxq/internal/store"
	"mxq/internal/xqerr"
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
			for a := alo; a < ahi; a++ {
				if n.Test.Name != "" && ac.Names.Name(ac.AttrName[a]) != n.Test.Name {
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

// elemCursor walks one (iter, item) input of an ElemConstruct.
type elemCursor struct {
	iter []int64
	item *ItemVec
	pos  int
}

// at returns the rows of iteration it; iterations are visited ascending.
func (c *elemCursor) at(it int64) (lo, hi int) {
	for c.pos < len(c.iter) && c.iter[c.pos] < it {
		c.pos++
	}
	for lo = c.pos; c.pos < len(c.iter) && c.iter[c.pos] == it; c.pos++ {
	}
	return lo, c.pos
}

// execElem builds one tree per loop iteration by n's template. A node
// content item becomes one KindRef row when ref (Op.Ref: the trees are
// only serialized, MarkByRef), else a shallow copy of its subtree.
func (e *Exec) execElem(n *ElemConstruct, in []*Table, ref bool) (*Table, error) {
	if e.Transient == nil {
		return nil, fmt.Errorf("ralg: element construction without a transient container")
	}
	loop := in[0].Ints("iter")
	// one cursor per input, an attribute part's items cast to strings up
	// front, and each name interned once: a tag at its template index, the
	// attribute names after them in order. Make room once for a row per
	// element and per node content item — what a reference takes; text
	// nodes and copied subtrees grow the columns, and a copy is charged as
	// it does — the first constructor to build anything for what the whole
	// statement built last time, so no later one moves a column
	na := len(n.Template)
	for _, t := range n.Template {
		na += len(t.Attrs)
	}
	curs, ids := make([]elemCursor, len(in)), dirty[int32](e, scratchRegion, na)[:len(n.Template)]
	rows, k := 0, 1
	for i, t := range n.Template {
		if t.Kind == TokStart {
			ids[i], rows = e.Transient.Names.ID(t.Tag), rows+len(loop)
		}
		for _, a := range t.Attrs {
			ids = append(ids, e.Transient.Names.ID(a.Attr))
			for range a.Parts {
				curs[k], k = elemCursor{iter: in[k].Ints("iter"), item: e.cast(FunStringOf, in[k].Col("item"))}, k+1
			}
		}
		if t.Kind == TokPart {
			c := in[k].Col("item")
			for j := 0; j < c.Len(); j++ {
				if c.KindAt(j) == xqt.KNode {
					rows++
				}
			}
			curs[k], k = elemCursor{iter: in[k].Ints("iter"), item: c}, k+1
		}
	}
	tc := e.uniformVec(xqt.KNode, len(loop))
	b := store.NewContainerBuilder(e.Transient)
	before, room, attrs := e.Transient.Len(), cap(e.Transient.Size), (len(ids)-len(n.Template))*len(loop)
	if room == 0 && rows > 0 {
		rows = max(rows, e.SizeHint)
	}
	// the container is the one row store the arena does not hand out:
	// what Reserve is about to add is charged, and refused, like a column
	e.charge(outRegion, int64(max(before+rows-room, 0))*store.RowBytes+
		int64(max(len(e.Transient.AttrOwner)+attrs-cap(e.Transient.AttrOwner), 0))*store.AttrBytes)
	b.Reserve(rows, attrs)
	// the innermost open element's pending text: a lone atom is passed
	// through as it is, a run of atoms is joined in buf. A node, a start
	// or an end ends a run, so it is written where it ends; atoms of one
	// part are joined with a space, adjacent parts' directly (XQuery
	// §3.7.1.3). saw is whether that element has content yet, sp whether
	// an atom of the current part came before
	pend, buf, saw, sp := "", []byte(nil), false, false
	flush := func() {
		if len(buf) > 0 {
			pend, buf = string(buf), buf[:0]
		}
		b.Text(pend)
		pend = ""
	}
	for built, it := range loop {
		if built&1023 == 1023 && e.stopRequested() {
			return nil, e.stopErr()
		}
		k, ai := 1, len(n.Template)
		for i := range n.Template {
			switch t := &n.Template[i]; t.Kind {
			case TokStart:
				if pre := b.StartElemID(ids[i]); i == 0 {
					tc.Cont[built], tc.I[built] = e.Transient.ID, int64(pre)
				}
				saw = false
				for _, a := range t.Attrs {
					val := ""
					for range a.Parts {
						// Join and += return a lone string as it is: the common
						// single-part single-item value is passed through, not copied
						lo, hi := curs[k].at(it)
						val, k = val+strings.Join(curs[k].item.S[lo:hi], " "), k+1
					}
					b.AttrID(ids[ai], val)
					ai++
				}
			case TokEnd:
				b.End()
				saw = true // the element is content of its parent
			default:
				lo, hi := curs[k].at(it)
				for vec := curs[k].item; lo < hi; lo++ {
					switch vec.KindAt(lo) {
					case xqt.KNode:
						flush()
						src, node := e.Pool.Get(vec.Cont[lo]), int32(vec.I[lo])
						if ref {
							b.Ref(src, node)
						} else {
							e.copyNode(b, src, node)
						}
						saw = true
					case xqt.KAttr:
						src, row := e.Pool.Get(vec.Cont[lo]), vec.I[lo]
						name := src.Names.Name(src.AttrName[row])
						if saw {
							return nil, xqerr.Newf("XQTY0024", "attribute node after content in element constructor")
						} else if b.HasAttr(name) {
							return nil, xqerr.Newf("XQDY0025", "duplicate attribute %s in element constructor", name)
						}
						b.Attr(name, src.AttrVal[row])
					default:
						switch s := vec.At(lo).AsString(); {
						case pend == "" && len(buf) == 0:
							pend, saw = s, saw || s != ""
						case len(buf) == 0:
							buf = append(buf, pend...)
							fallthrough
						default:
							if sp {
								buf = append(buf, ' ')
							}
							buf = append(buf, s...)
						}
						sp = true
					}
				}
				if k, sp = k+1, false; n.Template[i+1].Kind != TokPart {
					flush()
				}
			}
		}
	}
	e.Stats.TransientRows += int64(e.Transient.Len() - before)
	if room > 0 && cap(e.Transient.Size) != room {
		e.Stats.TransientRegrows++
	}
	// one element per iteration, in loop order: the loop's iter column is shared
	return tableOf([]string{"iter", "item"}, *in[0].Col("iter"), tc), nil
}

// copyNode copies the subtree of node into b's open element, a document
// node's children for a document node, counts the copied rows and
// charges the columns' growth.
func (e *Exec) copyNode(b *store.Builder, src *store.Container, node int32) {
	at, room := e.Transient.Len(), cap(e.Transient.Size)
	if src.Kind[node] != store.KindDoc {
		b.CopyTree(src, node)
	} else {
		for p, end := node+1, node+src.Size[node]; p <= end; p += src.Size[p] + 1 {
			b.CopyTree(src, p)
		}
	}
	e.Stats.CopiedRows += int64(e.Transient.Len() - at)
	e.charge(outRegion, int64(cap(e.Transient.Size)-room)*store.RowBytes)
}
