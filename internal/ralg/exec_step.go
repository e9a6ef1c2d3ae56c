package ralg

import (
	"fmt"
	"strings"

	"mxq/internal/scj"
	"mxq/internal/store"
	"mxq/internal/xqerr"
	"mxq/internal/xqt"
)

// stepInputSorted verifies the (item, iter) sort contract of Step inputs.
func stepInputSorted(items *ItemVec, iters []int64) bool {
	if k, ok := items.Uniform(); ok && (k == xqt.KNode || k == xqt.KAttr) {
		// uniform node column: document order is (container, pre) order
		// directly on the payload vectors
		return rawColsSorted([]rawCol{{hi: items.Cont, lo: items.I}, {lo: iters}}, items.Len())
	}
	for i := 1; i < items.Len(); i++ {
		a, b := items.At(i-1), items.At(i)
		if xqt.SortLess(a, b) {
			continue
		}
		if xqt.SortLess(b, a) || iters[i-1] > iters[i] {
			return false
		}
	}
	return true
}

// stepSeg is one contiguous segment of a Step input: either a run of
// node-context rows [lo, hi) all living in container cont, or a single
// attribute row (attrRow = true; only the parent axis resolves those).
type stepSeg struct {
	cont    int32
	lo, hi  int
	attrRow bool
}

// stepSegments cuts the (item, iter)-sorted Step input into per-container
// context runs. With a sharded collection each shard is one segment, so
// the segments are the unit of cross-shard parallelism.
func stepSegments(items *ItemVec, axis scj.Axis) []stepSeg {
	uniformNodes := false
	if k, ok := items.Uniform(); ok && k == xqt.KNode {
		uniformNodes = true
	}
	var segs []stepSeg
	i := 0
	for i < items.Len() {
		if items.KindAt(i) != xqt.KNode {
			// attribute nodes have no children etc.; only the parent
			// axis resolves to their owner
			if items.KindAt(i) == xqt.KAttr && axis == scj.Parent {
				segs = append(segs, stepSeg{cont: items.Cont[i], lo: i, hi: i + 1, attrRow: true})
			}
			i++
			continue
		}
		cont := items.Cont[i]
		j := i
		if uniformNodes {
			for j < items.Len() && items.Cont[j] == cont {
				j++
			}
		} else {
			for j < items.Len() && items.KindAt(j) == xqt.KNode && items.Cont[j] == cont {
				j++
			}
		}
		segs = append(segs, stepSeg{cont: cont, lo: i, hi: j})
		i = j
	}
	return segs
}

// stepSegRun evaluates one segment and returns the blocks the kernel
// filled. The segment's worker budget is its share — weight out of
// total — of the execution's workers: scj.StepBlocks runs the step
// serially on a budget of one, or below the threshold, and decomposed
// otherwise.
func (e *Exec) stepSegRun(n *Step, iters []int64, items *ItemVec, s stepSeg, weight, total int64, st *scj.Stats) scj.Blocks {
	c := e.Pool.Get(s.cont)
	if s.attrRow {
		owner := c.AttrOwner[items.I[s.lo]]
		if !scj.CompileTest(c, n.Test)(owner) {
			return scj.Blocks{}
		}
		return scj.Blocks{Segs: []scj.Pairs{{Pre: []int32{owner}, Iter: []int32{int32(iters[s.lo])}}}}
	}
	// the context relation: the run's pre and iter vectors narrowed to the
	// document's int32 encoding, in scratch memory
	ctx := scj.Pairs{Pre: dirty[int32](e, scratchRegion, s.hi-s.lo), Iter: dirty[int32](e, scratchRegion, s.hi-s.lo)}
	for i := s.lo; i < s.hi; i++ {
		ctx.Pre[i-s.lo], ctx.Iter[i-s.lo] = int32(items.I[i]), int32(iters[i])
	}
	budget := int(int64(e.Par.Workers) * weight / total)
	return scj.StepBlocks(e.Par.Slots, c, ctx, n.Axis, n.Test, n.Variant, budget, e.Par.Threshold, st)
}

func (e *Exec) execStep(n *Step, in *Table) (*Table, error) {
	iters := in.Ints(n.IterCol)
	items := in.ItemVec(n.ItemCol)
	if !stepInputSorted(items, iters) {
		return nil, fmt.Errorf("ralg: step(%v) input not sorted on (item, iter): plan misses a sort", n.Axis)
	}
	segs := stepSegments(items, n.Axis)
	results := make([]scj.Blocks, len(segs))
	// Each container run is one task (with a sharded collection, the
	// unit of cross-shard parallelism), and the worker budget is split
	// across segments in proportion to their containers' sizes, so a
	// dominant segment (one huge document next to small shards) keeps
	// its intra-container range/context partitioning. Context rows are
	// not the weight because one root row can cover a whole document.
	// Per-segment stats are summed afterwards; concatenating segment
	// outputs in segment order gives the same emission order whatever
	// the task schedule.
	weights := dirty[int64](e, scratchRegion, len(segs))
	var weight int64
	for k, s := range segs {
		w := int64(1)
		if !s.attrRow {
			if l := int64(e.Pool.Get(s.cont).Len()); l > 1 {
				w = l
			}
		}
		weights[k] = w
		weight += w
	}
	defer func() {
		for k := range results {
			results[k].Release() // the blocks go back to the pool on every path
		}
	}()
	stats := make([]scj.Stats, len(segs))
	stop := e.stopFunc()
	var charge func(int64) bool
	if e.Mem != nil {
		// the emitter's blocks go back to their pool when the step ends:
		// operator-lifetime bytes
		charge = func(n int64) bool { return e.metered(scratchRegion, n) }
	}
	e.forTasks(len(segs), func(k int) {
		stats[k] = scj.Stats{Stop: stop, Charge: charge}
		results[k] = e.stepSegRun(n, iters, items, segs[k], weights[k], weight, &stats[k])
	})
	// the pair segments of all container runs with their output offsets
	type piece struct {
		scj.Pairs
		cont int32
		base int
	}
	var pieces []piece
	total := 0
	for k := range results {
		e.Stats.Step.Touched += stats[k].Touched
		e.Stats.Step.Emitted += stats[k].Emitted
		e.Stats.Step.Pruned += stats[k].Pruned
		for _, seg := range results[k].Segs {
			pieces = append(pieces, piece{seg, segs[k].cont, total})
			total += seg.Len()
		}
	}
	// the emitter charged 8 B per pair as each block filled, so a runaway
	// step aborts mid-emission; the 20 B per row of the widened columns
	// are refused here, before they are allocated
	out := NewTable([]string{"iter", "item"}, []ColKind{KInt, KItem})
	ic := out.Col("iter")
	tc := out.Col("item")
	ic.Int = dirty[int64](e, outRegion, total)
	tc.Item = e.uniformVec(xqt.KNode, total)
	// the single copy of the step result: block pairs widen straight into
	// the output columns
	e.forTasks(len(pieces), func(k int) {
		pc := pieces[k]
		ii, cc, pp := ic.Int[pc.base:], tc.Item.Cont[pc.base:], tc.Item.I[pc.base:]
		for r, pre := range pc.Pre {
			ii[r], cc[r], pp[r] = int64(pc.Iter[r]), pc.cont, int64(pre)
		}
	})
	out.N = total
	return out, nil
}

func (e *Exec) execAttrStep(n *AttrStep, in *Table) (*Table, error) {
	iters := in.Ints(n.IterCol)
	items := in.ItemVec(n.ItemCol)
	if !stepInputSorted(items, iters) {
		return nil, fmt.Errorf("ralg: attribute step input not sorted on (item, iter)")
	}
	// newRunAt is the chunk boundary predicate: row i starts a new
	// run of identical context items
	newRunAt := func(i int) bool { return items.At(i) != items.At(i-1) }
	if k, ok := items.Uniform(); ok && (k == xqt.KNode || k == xqt.KAttr) {
		newRunAt = func(i int) bool {
			return items.Cont[i] != items.Cont[i-1] || items.I[i] != items.I[i-1]
		}
	}
	// chunks end at identical-item run boundaries: each run is resolved
	// by one chunk, so concatenating chunk outputs keeps the (attribute,
	// iter) order
	rs := e.chunks(in.N, newRunAt)
	ics, conts, rows := make([][]int64, len(rs)), make([][]int32, len(rs)), make([][]int64, len(rs))
	e.forChunks(rs, func(k, lo, hi int) {
		ics[k], conts[k], rows[k] = e.attrStepRange(n, iters, items, lo, hi)
	})
	out := NewTable([]string{"iter", "item"}, []ColKind{KInt, KItem})
	out.Col("iter").Int = settle(e, ics...)
	out.N = out.Col("iter").Len()
	out.Col("item").Item = ItemVec{Tag: xqt.KAttr, n: out.N, Cont: settle(e, conts...), I: settle(e, rows...)}
	return out, nil
}

// attrStepRange resolves the attribute axis for input rows [lo, hi); lo
// must start a run of identical context items. The (iter, container,
// attribute row) lists it returns grow in scratch memory.
func (e *Exec) attrStepRange(n *AttrStep, iters []int64, items *ItemVec, lo, hi int) (ic []int64, tc []int32, ta []int64) {
	i := lo
	runs := 0
	for i < hi {
		runs++
		if runs&4095 == 4095 && e.stopRequested() {
			break // the caller's partial output is discarded at Run's checkpoint
		}
		if items.KindAt(i) != xqt.KNode {
			i++
			continue
		}
		// group the run of identical context nodes so the output stays
		// (attribute, iter)-ordered
		j := i
		for j < hi && items.KindAt(j) == xqt.KNode &&
			items.Cont[j] == items.Cont[i] && items.I[j] == items.I[i] {
			j++
		}
		c := e.Pool.Get(items.Cont[i])
		pre := int32(items.I[i])
		if c.Kind[pre] == store.KindElem {
			ac, alo, ahi := c.Attrs(pre)
			for a := alo; a < ahi; a++ {
				if n.NameTest != "" && ac.Names.Name(ac.AttrName[a]) != n.NameTest {
					continue
				}
				for k := i; k < j; k++ {
					ic, tc, ta = append(grown(e, ic, 1), iters[k]), append(grown(e, tc, 1), ac.ID), append(grown(e, ta, 1), int64(a))
				}
			}
		}
		i = j
	}
	return ic, tc, ta
}

func (e *Exec) execElem(n *ElemConstruct, in []*Table) (*Table, error) {
	if e.Transient == nil {
		return nil, fmt.Errorf("ralg: element construction without a transient container")
	}
	loop, citer, citem := in[0].Ints("iter"), in[1].Ints("iter"), in[1].ItemVec("item")
	// attribute value cursors: one per attribute part, its items cast to strings up front
	type partCur struct {
		iter []int64
		strs []string
		pos  int
	}
	type attrCur struct {
		name  string
		parts []partCur
	}
	attrs := make([]attrCur, len(n.Attrs))
	next := 2
	for i := range n.Attrs {
		attrs[i].name = n.Attrs[i].Attr
		for range n.Attrs[i].Parts {
			t := in[next]
			next++
			attrs[i].parts = append(attrs[i].parts, partCur{iter: t.Ints("iter"), strs: e.cast(FunStringOf, t.Col("item")).S})
		}
	}
	out := NewTable([]string{"iter", "item"}, []ColKind{KInt, KItem})
	out.N = len(loop)
	out.Col("iter").Int = loop // one element per iteration, in loop order
	tc := out.Col("item")
	tc.Item = e.uniformVec(xqt.KNode, len(loop))
	b := store.NewContainerBuilder(e.Transient)
	// the copied subtrees dominate the rows this operator appends to the
	// transient container: make room for them once (text nodes ride on
	// append's growth) — the first constructor to build anything for what
	// the whole statement built last time, so no later one moves a column
	rows := len(loop)
	for i := 0; i < citem.Len(); i++ {
		if citem.KindAt(i) == xqt.KNode {
			rows += int(e.Pool.Get(citem.Cont[i]).Size[citem.I[i]]) + 1
		}
	}
	before, room := e.Transient.Len(), cap(e.Transient.Size)
	if room == 0 && rows > 0 {
		rows = max(rows, e.SizeHint)
	}
	// the container is the one row store the arena does not hand out:
	// what Reserve is about to add is charged, and refused, like a column
	e.charge(outRegion, int64(max(before+rows-room, 0))*store.RowBytes)
	b.Reserve(rows)
	tag := e.Transient.Names.ID(n.Tag)
	ci := 0
	for built, it := range loop {
		if built&1023 == 1023 && e.stopRequested() {
			return nil, e.stopErr()
		}
		pre := b.StartElemID(tag)
		for a := range attrs {
			val := ""
			for pi := range attrs[a].parts {
				cur := &attrs[a].parts[pi]
				for cur.pos < len(cur.iter) && cur.iter[cur.pos] < it {
					cur.pos++
				}
				lo := cur.pos
				for cur.pos < len(cur.iter) && cur.iter[cur.pos] == it {
					cur.pos++
				}
				// Join and += return a lone string as it is: the common
				// single-part single-item value is passed through, not copied
				val += strings.Join(cur.strs[lo:cur.pos], " ")
			}
			b.Attr(attrs[a].name, val)
		}
		for ci < len(citer) && citer[ci] < it {
			ci++
		}
		pendingText := ""
		sawContent := false
		flush := func() {
			if pendingText != "" {
				b.Text(pendingText)
				pendingText = ""
			}
		}
		for ci < len(citer) && citer[ci] == it {
			switch citem.KindAt(ci) {
			case xqt.KNode:
				flush()
				src, node := e.Pool.Get(citem.Cont[ci]), int32(citem.I[ci])
				if src.Kind[node] == store.KindDoc {
					// copying a document node copies its children
					end := node + src.Size[node]
					for p := node + 1; p <= end; p += src.Size[p] + 1 {
						b.CopyTree(src, p)
					}
				} else {
					b.CopyTree(src, node)
				}
				sawContent = true
			case xqt.KAttr:
				src, row := e.Pool.Get(citem.Cont[ci]), citem.I[ci]
				if sawContent || pendingText != "" {
					return nil, xqerr.Newf("XQTY0024", "attribute node after content in element constructor")
				}
				b.Attr(src.Names.Name(src.AttrName[row]), src.AttrVal[row])
			default:
				if text := citem.At(ci).AsString(); pendingText != "" {
					pendingText += " " + text
				} else {
					pendingText = text
					sawContent = sawContent || pendingText != ""
				}
			}
			ci++
		}
		flush()
		b.End()
		tc.Item.Cont[built], tc.Item.I[built] = e.Transient.ID, int64(pre)
	}
	e.Stats.TransientRows += int64(e.Transient.Len() - before)
	if room > 0 && cap(e.Transient.Size) != room {
		e.Stats.TransientRegrows++
	}
	return out, nil
}
