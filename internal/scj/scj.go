// Package scj implements staircase join — the XPath-aware join operator of
// MonetDB/XQuery — in its loop-lifted form (paper §3): a single sequential
// pass over the pre|size|level document encoding evaluates an XPath
// location step for the context node sequences of *all* iterations of an
// enclosing XQuery for-loop at once.
//
// Three techniques distinguish staircase join from generic structural
// joins (paper Figures 1–3):
//
//   - Pruning: context nodes covered by another context node of the same
//     iteration are dropped, as they would only produce duplicates.
//   - Partitioning: overlapping context regions are split along the pre
//     axis (implemented by the stack of active context nodes), so result
//     nodes are emitted exactly once per iteration.
//   - Skipping: regions of the document that cannot contain results are
//     skipped via the size property, so no more than |result| + |context|
//     tuples are touched.
//
// The package also provides the per-iteration ("iterative") variants used
// as the ablation baseline of Figure 12, and candidate-list variants that
// implement nametest pushdown through the element-name index (§3.2).
//
// There is one kernel per axis and variant, and it has one sink: the
// block emitter of emit.go. Kernels write result pairs into pooled
// fixed-capacity blocks, test nodes against a compiled (kind mask, name
// id) table inline, and never hash: pruning state is a sorted iteration
// set (descendant), the previous context of the iteration (ancestor) or
// a stack of open sibling groups. StepBlocks hands the block list to the
// caller; Step is the same run flattened into one exact-size Pairs;
// CountStep is the same run counted per iteration, with no result kept.
//
// All variants are read-only with respect to the container, so any
// number of steps may run concurrently against the same document.
package scj

import (
	"slices"
	"sort"

	"mxq/internal/store"
)

// Axis identifies an XPath axis.
type Axis uint8

// The XPath axes. Loop-lifted staircase join evaluates all but the
// attribute axis, whose results are attribute rows, not pre|size|level
// tuples: the relational algebra layer resolves that one.
const (
	Child Axis = iota
	Descendant
	DescendantOrSelf
	Self
	Parent
	Ancestor
	AncestorOrSelf
	Following
	Preceding
	FollowingSibling
	PrecedingSibling
	Attribute
)

func (a Axis) String() string {
	switch a {
	case Child:
		return "child"
	case Descendant:
		return "descendant"
	case DescendantOrSelf:
		return "descendant-or-self"
	case Self:
		return "self"
	case Parent:
		return "parent"
	case Ancestor:
		return "ancestor"
	case AncestorOrSelf:
		return "ancestor-or-self"
	case Following:
		return "following"
	case Preceding:
		return "preceding"
	case FollowingSibling:
		return "following-sibling"
	case PrecedingSibling:
		return "preceding-sibling"
	case Attribute:
		return "attribute"
	}
	return "axis?"
}

// TestKind is the node test of a location step.
type TestKind uint8

// Node tests.
const (
	TestNode    TestKind = iota // node()
	TestElem                    // element, optionally named
	TestText                    // text()
	TestComment                 // comment()
	TestPI                      // processing-instruction()
	TestDoc                     // document-node()
)

// Test is a node test: a kind test plus an optional name test (elements
// and processing instructions).
type Test struct {
	Kind TestKind
	Name string // "" matches any name
}

// Pairs is a context or result relation of the loop-lifted staircase join:
// parallel (pre, iter) columns, sorted lexicographically by (pre, iter).
// A result Pairs is exact-size: the kernels emit into pooled blocks (see
// Blocks) and Step flattens those once.
type Pairs struct {
	Pre  []int32
	Iter []int32
}

// Len returns the number of pairs.
func (p *Pairs) Len() int { return len(p.Pre) }

// Stats collects the access counters used to verify the
// |result| + |context| touch bound and to drive the skipping experiments.
type Stats struct {
	Touched int64 // document tuples visited (including skip landings)
	Emitted int64 // result pairs produced
	Pruned  int64 // context entries removed by pruning

	// Stop, when non-nil, is polled (amortized over a few thousand
	// touched tuples) by the step algorithms; returning true makes them
	// abandon the remaining sweep. The executor wires it to its
	// context's cancellation so deadline/disconnect aborts mid-step; the
	// truncated output is discarded by the caller. Nil (the default)
	// keeps the sweeps poll-free.
	Stop func() bool

	// Charge, when non-nil, accounts n bytes of pairs against the
	// execution's memory budget, 8 B per pair: the emitter calls it as
	// each block fills, so a step is visible to the budget while it
	// runs, and the flattened list asks before it allocates. An
	// exhausted budget reports through Stop, so the sweeps need no extra
	// branch. Nil disables accounting.
	Charge func(n int64) bool
}

// charge accounts n pairs; false means the budget refused them and a
// caller about to allocate them must not.
func (st *Stats) charge(n int) bool { return st == nil || st.Charge == nil || st.Charge(8*int64(n)) }

// stopped reports whether a cancellation hook is installed and has fired.
func (st *Stats) stopped() bool { return st.Stop != nil && st.Stop() }

// touch counts n visited tuples and polls Stop whenever the count
// crosses a multiple of 4096; true means the sweep must be abandoned.
func (st *Stats) touch(n int64) bool {
	before := st.Touched
	st.Touched += n
	return before>>12 != st.Touched>>12 && st.stopped()
}

// Variant selects the execution strategy of a step.
type Variant uint8

// Execution variants (Figure 12's ablation axes).
const (
	// LoopLifted evaluates all iterations in one pass (the paper's
	// contribution).
	LoopLifted Variant = iota
	// Iterative runs plain staircase join once per iteration, selecting
	// each iteration's context nodes from the full context relation —
	// the pre-loop-lifting baseline.
	Iterative
	// CandidateList additionally consumes the element-name index and
	// only emits nodes on the candidate list (nametest pushdown, §3.2).
	// It falls back to LoopLifted when the test has no usable index.
	CandidateList
)

// Step evaluates one location step over ctx against the document encoding
// of c and returns the result pairs in (pre, iter) order: within each
// iteration the result is duplicate-free and in document order. It is
// StepBlocks flattened.
func Step(c *store.Container, ctx Pairs, axis Axis, test Test, v Variant, st *Stats) Pairs {
	return StepBlocks(c, ctx, axis, test, v, st).Pairs(st)
}

// StepBlocks is the one entry to the step kernels: it runs the kernel of
// (axis, v) over ctx and returns the result as the blocks the kernel
// filled, in (pre, iter) order. The caller copies the segments out and
// calls Release.
func StepBlocks(c *store.Container, ctx Pairs, axis Axis, test Test, v Variant, st *Stats) Blocks {
	if st == nil {
		st = &Stats{}
	}
	em := newEmitter(st)
	runKernel(c, ctx, axis, test, v, em)
	out := em.finish()
	st.Emitted += int64(out.Len())
	return out
}

// CountStep is StepBlocks in count mode: it adds each iteration's result
// count to counts[iter], which must cover every iteration of ctx, and
// keeps no pair. It touches and emits what StepBlocks does (st must not
// be nil); the pairs pass through one recycled block, charged nothing.
func CountStep(c *store.Container, ctx Pairs, axis Axis, test Test, v Variant, st *Stats, counts []int64) {
	em := &emitter{fill: blockCap, st: st, counts: counts}
	runKernel(c, ctx, axis, test, v, em)
	b := em.finish()
	b.Release()
}

func runKernel(c *store.Container, ctx Pairs, axis Axis, test Test, v Variant, em *emitter) {
	if v == Iterative {
		iterative(c, ctx, axis, test, em)
		return
	}
	t := compileTest(c, test)
	cand, useCand := candidates(c, test)
	useCand = useCand && v == CandidateList
	switch axis {
	case Child:
		if useCand {
			candChild(c, ctx, cand, em)
		} else {
			llChild(c, ctx, &t, em)
		}
	case Descendant, DescendantOrSelf:
		if useCand {
			candDescendant(c, ctx, cand, axis == DescendantOrSelf, em)
		} else {
			scanDescendant(c, ctx, &t, axis == DescendantOrSelf, em)
		}
	case Self:
		llSelf(c, ctx, &t, em)
	case Parent:
		llParent(c, ctx, &t, em)
	case Ancestor, AncestorOrSelf:
		llAncestor(c, ctx, &t, axis == AncestorOrSelf, em)
	case Following:
		llFollowing(c, ctx, &t, em)
	case Preceding:
		llPreceding(c, ctx, &t, em)
	case FollowingSibling, PrecedingSibling:
		llSibling(c, ctx, &t, axis == FollowingSibling, em)
	}
}

// scanDescendant is the descendant sweep: a context node pushes its
// region when the scan reaches it, the stretches between context nodes
// are filtered in bulk, and a gap that no open region covers is skipped
// to the next context node. With orSelf a context node joins the result
// of its own iterations too: its region is pushed before the node is
// tested.
func scanDescendant(c *store.Container, ctx Pairs, t *nodeTest, orSelf bool, em *emitter) {
	var rg regions
	st := em.st
	n := int32(ctx.Len())
	if n == 0 {
		return
	}
	nxt := int32(0)
	for p, end := ctx.Pre[0], int32(c.Len()); p < end; {
		rg.popBefore(p)
		if len(rg.frames) == 0 {
			// skipping: jump to the next context node
			if nxt >= n {
				break
			}
			p = ctx.Pre[nxt]
		}
		if nxt < n && ctx.Pre[nxt] == p {
			j := runEnd(ctx, nxt, n)
			if orSelf {
				st.Pruned += rg.push(ctx.Iter[nxt:j], p+c.Size[p])
			}
			if len(rg.active) > 0 {
				if st.touch(1) {
					return
				}
				if t.match(c, p) {
					for _, it := range rg.active {
						em.emit(p, it)
					}
				}
			}
			if !orSelf {
				st.Pruned += rg.push(ctx.Iter[nxt:j], p+c.Size[p])
			}
			nxt = j
			p++
			continue
		}
		stop := rg.frames[len(rg.frames)-1].eos
		if nxt < n {
			stop = min(stop, ctx.Pre[nxt]-1)
		}
		if p = scanStretch(c, t, p, stop, rg.active, em); p < 0 {
			return
		}
	}
}

// scanStretch emits the matching tuples of [p, stop] — a stretch with no
// context node and one fixed set of active iterations — and returns the
// position after it, or -1 when the sweep was stopped. With a single
// active iteration and a table-only test (the common case) it is a bulk
// filter straight into the current block: sub-stretches no longer than
// the block's free space need no capacity check, and each adds its
// touch count and polls Stop once. In count mode that filter only counts.
func scanStretch(c *store.Container, t *nodeTest, p, stop int32, active []int32, em *emitter) int32 {
	st := em.st
	if len(active) != 1 || t.name != nil {
		for ; p <= stop; p++ {
			if st.touch(1) {
				return -1
			}
			if t.match(c, p) {
				for _, it := range active {
					em.emit(p, it)
				}
			}
		}
		return p
	}
	kind, nameID, mask, id, it := c.Kind, c.NameID, t.mask, t.id, active[0]
	for em.counts != nil && p <= stop {
		end, k := min(stop, p+blockCap-1), 0
		for q, kd := range kind[p : end+1] { // the kind test is added, not branched on
			if id < 0 || nameID[p+int32(q)] == id {
				k += int(mask >> kd & 1)
			}
		}
		em.counts[it], st.Emitted = em.counts[it]+int64(k), st.Emitted+int64(k)
		if st.touch(int64(end + 1 - p)) {
			return -1
		}
		p = end + 1
	}
	for p <= stop {
		pre, iter := em.room()
		from, k := p, 0
		for end := min(stop, p+int32(len(pre))-1); p <= end; p++ {
			if mask>>kind[p]&1 != 0 && (id < 0 || nameID[p] == id) {
				pre[k], iter[k] = p, it
				k++
			}
		}
		em.fill += k
		if st.touch(int64(p - from)) {
			return -1
		}
	}
	return p
}

// nodeTest is a compiled node test: a bit mask over store.NodeKind plus
// the name id a match must carry, evaluated inline by the kernels.
type nodeTest struct {
	mask uint8
	id   int32                // -1: any name
	name func(pre int32) bool // shallow-copy containers only: the name test through RefCont
}

var kindMasks = [...]uint8{
	TestNode:    1<<(store.KindPI+1) - 1, // every node kind
	TestElem:    1 << store.KindElem,
	TestText:    1 << store.KindText,
	TestComment: 1 << store.KindComment,
	TestPI:      1 << store.KindPI,
	TestDoc:     1 << store.KindDoc,
}

// compileTest resolves t against c. Only a shallow-copy container, whose
// rows name elements of other containers, keeps a name-resolving closure.
func compileTest(c *store.Container, t Test) nodeTest {
	nt := nodeTest{id: -1}
	if int(t.Kind) < len(kindMasks) {
		nt.mask = kindMasks[t.Kind]
	}
	if t.Name != "" && (t.Kind == TestElem || t.Kind == TestPI) {
		if c.RefCont != nil {
			nt.name = func(pre int32) bool { return c.NameOf(pre) == t.Name }
		} else if id, ok := c.Names.Lookup(t.Name); ok {
			nt.id = id
		} else {
			nt.mask = 0
		}
	}
	return nt
}

// match reports whether row p passes the test.
func (t *nodeTest) match(c *store.Container, p int32) bool {
	return t.mask>>c.Kind[p]&1 != 0 && (t.id < 0 || c.NameID[p] == t.id) && (t.name == nil || t.name(p))
}

// CompileTest builds a node-test predicate over the rows of c.
func CompileTest(c *store.Container, t Test) func(pre int32) bool {
	nt := compileTest(c, t)
	return func(pre int32) bool { return nt.match(c, pre) }
}

// runEnd returns the end of the run of context rows sharing ctx.Pre[i].
func runEnd(ctx Pairs, i, n int32) int32 {
	j := i + 1
	for j < n && ctx.Pre[j] == ctx.Pre[i] {
		j++
	}
	return j
}

// llChild is the child-axis algorithm of Figure 6: a stack of active
// context nodes, positional skipping over child subtrees, and per-context
// iteration ranges (fstIter, lstIter).
func llChild(c *store.Container, ctx Pairs, t *nodeTest, em *emitter) {
	type frame struct {
		eos     int32 // end of the current context's scope (pre + size)
		nxtChld int32 // next child candidate to process
		fstIter int32 // first ctx row of this context node
		lstIter int32 // one past the last ctx row of this context node
	}
	var active []frame
	st := em.st
	n := int32(ctx.Len())
	nxtCtx := int32(0)

	pushCtx := func() {
		curPre := ctx.Pre[nxtCtx]
		f := frame{eos: curPre + c.Size[curPre], nxtChld: curPre + 1, fstIter: nxtCtx}
		nxtCtx = runEnd(ctx, nxtCtx, n)
		f.lstIter = nxtCtx
		active = append(active, f)
	}
	// innerLoop emits the top context's children up to stop; false means
	// the sweep was stopped
	innerLoop := func(stop int32) bool {
		f := &active[len(active)-1]
		p := f.nxtChld
		for p <= stop && p <= f.eos {
			if st.touch(1) {
				return false
			}
			if t.match(c, p) {
				for i := f.fstIter; i < f.lstIter; i++ {
					em.emit(p, ctx.Iter[i])
				}
			}
			p += c.Size[p] + 1
		}
		f.nxtChld = p
		return true
	}

	for events := 1; nxtCtx < n || len(active) > 0; events++ {
		if events&1023 == 0 && st.stopped() { // contexts without children touch nothing
			return
		}
		switch {
		case len(active) == 0:
			pushCtx() // ① start a new partition
		case nxtCtx < n && active[len(active)-1].eos >= ctx.Pre[nxtCtx]:
			if !innerLoop(ctx.Pre[nxtCtx]) { // ② children up to the next context
				return
			}
			pushCtx() // ③ descend into the next context
		default:
			if !innerLoop(active[len(active)-1].eos) { // ④ finish current context
				return
			}
			active = active[:len(active)-1] // ⑤ pop
		}
	}
}

func llSelf(c *store.Container, ctx Pairs, t *nodeTest, em *emitter) {
	for i, pre := range ctx.Pre {
		if em.st.touch(1) {
			return
		}
		if t.match(c, pre) {
			em.emit(pre, ctx.Iter[i])
		}
	}
}

// llParent emits each context's parent once per iteration: the matches
// are packed, sorted and compacted before they reach the emitter, so the
// blocks hold exactly the result.
func llParent(c *store.Container, ctx Pairs, t *nodeTest, em *emitter) {
	keys := make([]uint64, 0, ctx.Len())
	for i, pre := range ctx.Pre {
		par := c.Parent[pre]
		if par < 0 {
			continue
		}
		if em.st.touch(1) {
			return
		}
		if t.match(c, par) {
			keys = append(keys, packPair(par, ctx.Iter[i]))
		}
	}
	slices.Sort(keys)
	for _, k := range slices.Compact(keys) {
		em.emit(unpackPair(k))
	}
}

// byIter calls body once per iteration of ctx with that iteration's
// context nodes in document order, until body returns false. A context
// of one iteration — the common case — is passed through as it is;
// otherwise the rows are regrouped by a packed (iter, pre) sort.
func byIter(ctx Pairs, body func(it int32, pres []int32) bool) {
	n := ctx.Len()
	if n == 0 || !slices.ContainsFunc(ctx.Iter, func(it int32) bool { return it != ctx.Iter[0] }) {
		if n > 0 {
			body(ctx.Iter[0], ctx.Pre)
		}
		return
	}
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = packPair(ctx.Iter[i], ctx.Pre[i])
	}
	slices.Sort(keys)
	pres := make([]int32, n)
	for lo, hi := 0, 0; lo < n; lo = hi {
		it, _ := unpackPair(keys[lo])
		for hi = lo; hi < n && keys[hi]>>32 == keys[lo]>>32; hi++ {
			_, pres[hi] = unpackPair(keys[hi])
		}
		if !body(it, pres[lo:hi]) {
			return
		}
	}
}

// llAncestor walks parent chains. Pruning needs no visited set: the
// contexts of one iteration arrive in document order, so an ancestor v of
// the current context was reached from an earlier one exactly when v's
// region also holds the previous context — and then the rest of the
// chain is already emitted.
func llAncestor(c *store.Container, ctx Pairs, t *nodeTest, orSelf bool, em *emitter) {
	st := em.st
	em.unsorted = true
	byIter(ctx, func(it int32, pres []int32) bool {
		prev := int32(-1) // the iteration's previous context
		for _, pre := range pres {
			p := pre
			if !orSelf {
				p = c.Parent[p]
			}
			for ; p >= 0; p = c.Parent[p] {
				if st.touch(1) {
					return false
				}
				if prev >= 0 && prev <= p+c.Size[p] && (p < prev || orSelf && p == prev) {
					st.Pruned++
					break
				}
				if t.match(c, p) {
					em.emit(p, it)
				}
			}
			prev = pre
		}
		return true
	})
}

// llSibling evaluates following-sibling (following = true) and
// preceding-sibling. Per iteration it keeps a stack of the parents whose
// child lists an earlier context opened, innermost last; contexts arrive
// in document order, so the current context's parent is on the stack
// exactly when it is on top. A context with an earlier sibling context
// has nothing new to follow it (its following siblings are that
// sibling's too), and only the siblings since that one precede it anew.
func llSibling(c *store.Container, ctx Pairs, t *nodeTest, following bool, em *emitter) {
	type group struct{ par, last int32 } // last: the latest context child of par
	st := em.st
	em.unsorted = true
	var open []group
	byIter(ctx, func(it int32, pres []int32) bool {
		open = open[:0]
		for _, pre := range pres {
			par := c.Parent[pre]
			if par < 0 {
				continue
			}
			for len(open) > 0 && open[len(open)-1].par+c.Size[open[len(open)-1].par] < pre {
				open = open[:len(open)-1]
			}
			from, dup := par+1, len(open) > 0 && open[len(open)-1].par == par
			if dup {
				from = open[len(open)-1].last
				open[len(open)-1].last = pre
			} else {
				open = append(open, group{par, pre})
			}
			to := pre - 1
			if following {
				from, to = pre+c.Size[pre]+1, par+c.Size[par]
			}
			for v := from; v <= to; v += c.Size[v] + 1 {
				if st.touch(1) {
					return false
				}
				if !t.match(c, v) {
					continue
				}
				if following && dup {
					st.Pruned++
					break
				}
				em.emit(v, it)
			}
		}
		return true
	})
}

// groupByFragment invokes body once per run of context rows that share a
// fragment (XPath's following/preceding axes never cross tree boundaries,
// and a container may hold many document fragments — the shards of a
// ShardedPool, or the constructed trees of a transient container).
// Fragments occupy disjoint ascending pre ranges, so the runs are
// contiguous in the (pre, iter)-sorted context.
func groupByFragment(c *store.Container, ctx Pairs, body func(sub Pairs, frag int32)) {
	i := 0
	for i < ctx.Len() {
		frag := c.Frag[ctx.Pre[i]]
		j := i
		for j < ctx.Len() && c.Frag[ctx.Pre[j]] == frag {
			j++
		}
		body(Pairs{Pre: ctx.Pre[i:j], Iter: ctx.Iter[i:j]}, frag)
		i = j
	}
}

// iterCut is one iteration's cutoff position on the following/preceding
// axes.
type iterCut struct{ cut, iter int32 }

// iterCuts reduces a fragment's context to one cutoff per iteration —
// the smallest (sign < 0) or largest value of at(i) over the iteration's
// rows — and returns them in cutoff order, with the number of rows that
// did not move their iteration's cutoff (the pruned ones).
func iterCuts(ctx Pairs, sign int32, at func(i int) int32) (cuts []iterCut, pruned int64) {
	cutoff := make(map[int32]int32) // iter -> cutoff
	for i, it := range ctx.Iter {
		if cur, ok := cutoff[it]; !ok || (at(i)-cur)*sign > 0 {
			cutoff[it] = at(i)
		} else {
			pruned++
		}
	}
	cuts = make([]iterCut, 0, len(cutoff))
	for it, cut := range cutoff {
		cuts = append(cuts, iterCut{cut, it})
	}
	slices.SortFunc(cuts, func(a, b iterCut) int { return int(a.cut) - int(b.cut) })
	return cuts, pruned
}

// llFollowing exploits that the following regions of all context nodes of
// one iteration collapse to a single region starting after the context
// node with the smallest pre+size (partitioning degenerates to a
// minimum), bounded by the context node's fragment. Fragment groups cover
// disjoint ascending pre ranges, so the concatenated group outputs are in
// (pre, iter) order.
func llFollowing(c *store.Container, ctx Pairs, t *nodeTest, em *emitter) {
	groupByFragment(c, ctx, func(sub Pairs, frag int32) {
		cuts, pruned := iterCuts(sub, -1, func(i int) int32 { return sub.Pre[i] + c.Size[sub.Pre[i]] })
		em.st.Pruned += pruned
		fragEnd := frag + c.Size[frag]
		var active []int32
		next := 0
		for p := cuts[0].cut + 1; p <= fragEnd; p++ {
			for next < len(cuts) && cuts[next].cut < p {
				i, _ := slices.BinarySearch(active, cuts[next].iter)
				active = slices.Insert(active, i, cuts[next].iter)
				next++
			}
			if em.st.touch(1) {
				return
			}
			if t.match(c, p) {
				for _, it := range active {
					em.emit(p, it)
				}
			}
		}
	})
}

// llPreceding mirrors llFollowing: per iteration only the context node
// with the largest pre matters; node v precedes it iff pre(v)+size(v) <
// pre(c), with the sweep confined to the context node's fragment.
func llPreceding(c *store.Container, ctx Pairs, t *nodeTest, em *emitter) {
	em.unsorted = true // a node's iterations come out in cutoff order
	groupByFragment(c, ctx, func(sub Pairs, frag int32) {
		cuts, pruned := iterCuts(sub, 1, func(i int) int32 { return sub.Pre[i] })
		em.st.Pruned += pruned
		for p := frag; p < cuts[len(cuts)-1].cut; p++ {
			if em.st.touch(1) {
				return
			}
			if t.match(c, p) {
				// iterations whose cutoff exceeds the node's end form a suffix of cuts
				end := p + c.Size[p]
				lo := sort.Search(len(cuts), func(i int) bool { return cuts[i].cut > end })
				for _, ci := range cuts[lo:] {
					em.emit(p, ci.iter)
				}
			}
		}
	})
}

// iterative is the pre-loop-lifting baseline: plain staircase join is
// invoked once per iteration; each invocation must first select that
// iteration's context nodes from the full context relation, and the
// per-iteration results are concatenated and re-sorted afterwards. This
// reproduces the repeated-scan cost the loop-lifted algorithm eliminates.
func iterative(c *store.Container, ctx Pairs, axis Axis, test Test, em *emitter) {
	iters := slices.Clone(ctx.Iter)
	slices.Sort(iters)
	iters = slices.Compact(iters)
	em.unsorted = len(iters) > 1
	var sub Pairs
	for _, it := range iters {
		if em.st.stopped() {
			break
		}
		sub.Pre, sub.Iter = sub.Pre[:0], sub.Iter[:0]
		for i := 0; i < ctx.Len(); i++ { // full scan per iteration
			em.st.Touched++
			if ctx.Iter[i] == it {
				sub.Pre, sub.Iter = append(sub.Pre, ctx.Pre[i]), append(sub.Iter, it)
			}
		}
		runKernel(c, sub, axis, test, LoopLifted, em)
	}
}

// candidates returns the ascending candidate pre list for a named element
// test, if the container has an element-name index.
func candidates(c *store.Container, t Test) ([]int32, bool) {
	if t.Kind != TestElem || t.Name == "" {
		return nil, false
	}
	return c.ElemIndex(t.Name)
}

// regions is the partitioning state of a descendant sweep: the stack of
// open context regions, innermost last, and the sorted set of iterations
// active in any of them. Both are maintained incrementally — a push
// inserts, a pop removes, membership is a binary search.
type regions struct {
	frames []regionFrame
	added  []int32 // iterations each open region activated, in push order
	active []int32
}

type regionFrame struct {
	eos  int32 // end of the region's scope
	base int   // len(added) before the region was pushed
}

// push opens the region ending at eos for the ascending iterations
// iters; an iteration that is already active is pruned, and the number
// pruned is returned.
func (r *regions) push(iters []int32, eos int32) int64 {
	base := len(r.added)
	for _, it := range iters {
		if i, dup := slices.BinarySearch(r.active, it); !dup {
			r.active = slices.Insert(r.active, i, it)
			r.added = append(r.added, it)
		}
	}
	if len(r.added) > base {
		r.frames = append(r.frames, regionFrame{eos, base})
	}
	return int64(len(iters) - (len(r.added) - base))
}

// popBefore closes the regions that end before p.
func (r *regions) popBefore(p int32) {
	for k := len(r.frames) - 1; k >= 0 && r.frames[k].eos < p; k-- {
		base := r.frames[k].base
		for j := len(r.added) - 1; j >= base; j-- {
			i, _ := slices.BinarySearch(r.active, r.added[j])
			r.active = slices.Delete(r.active, i, i+1)
		}
		r.added, r.frames = r.added[:base], r.frames[:k]
	}
}

// gallop returns the first index >= i of the ascending list cand whose
// entry exceeds pre: doubling probes from i, then a binary search, so a
// cursor that only moves forward pays O(log distance) per move.
func gallop(cand []int32, i int, pre int32) int {
	hi, step := i, 1
	for hi < len(cand) && cand[hi] <= pre {
		i, hi, step = hi+1, hi+step, step*2
	}
	j, _ := slices.BinarySearch(cand[i:min(hi, len(cand))], pre+1)
	return i + j
}

// candDescendant is the predicate-pushdown descendant variant: instead of
// scanning the document it walks the candidate list, galloping past
// regions that cannot contain results (§3.2). With orSelf a context node
// that is itself a candidate joins the result of its own iterations.
func candDescendant(c *store.Container, ctx Pairs, cand []int32, orSelf bool, em *emitter) {
	const inf = int32(1) << 30
	var rg regions
	st := em.st
	n := int32(ctx.Len())
	nxt := int32(0)
	li := 0
	emitCand := func(pre int32) bool {
		for _, it := range rg.active {
			em.emit(pre, it)
		}
		return st.touch(1)
	}
	for events := 1; nxt < n || len(rg.frames) > 0; events++ {
		if events&1023 == 0 && st.stopped() {
			return
		}
		if len(rg.frames) == 0 {
			// skipping: jump straight past candidates that precede the
			// next context region
			skipTo := ctx.Pre[nxt]
			if orSelf {
				skipTo--
			}
			li = gallop(cand, li, skipTo)
		}
		ctxPre, candPre := inf, inf
		if nxt < n {
			ctxPre = ctx.Pre[nxt]
		}
		if li < len(cand) {
			candPre = cand[li]
		}
		if len(rg.frames) > 0 && min(candPre, ctxPre) > rg.frames[len(rg.frames)-1].eos {
			rg.popBefore(min(candPre, ctxPre)) // innermost region exhausted
		} else if ctxPre <= candPre {
			// context event: the context node itself, if it is a
			// candidate, belongs to the enclosing regions — with orSelf to
			// its own as well — and then its region opens
			j := runEnd(ctx, nxt, n)
			if orSelf {
				st.Pruned += rg.push(ctx.Iter[nxt:j], ctxPre+c.Size[ctxPre])
			}
			if candPre == ctxPre {
				li++
				if len(rg.active) > 0 && emitCand(candPre) {
					return
				}
			}
			if !orSelf {
				st.Pruned += rg.push(ctx.Iter[nxt:j], ctxPre+c.Size[ctxPre])
			}
			nxt = j
		} else if li++; emitCand(candPre) { // candidate event inside the innermost region
			return
		}
	}
}

// candChild is the candidate-list child variant: the candidates inside
// each context region are located by a forward-galloping cursor and
// filtered by a parent check. Output leaves (pre, iter) order only when a
// context region nests inside an earlier one.
func candChild(c *store.Container, ctx Pairs, cand []int32, em *emitter) {
	st := em.st
	n := int32(ctx.Len())
	lo, maxEos := 0, int32(-1)
	for i := int32(0); i < n; {
		pre := ctx.Pre[i]
		j := runEnd(ctx, i, n)
		eos := pre + c.Size[pre]
		em.unsorted = em.unsorted || pre <= maxEos
		maxEos = max(maxEos, eos)
		lo = gallop(cand, lo, pre)
		for li := lo; li < len(cand) && cand[li] <= eos; {
			from := li
			for end := min(li+4096, len(cand)); li < end && cand[li] <= eos; li++ {
				if c.Parent[cand[li]] == pre {
					for k := i; k < j; k++ {
						em.emit(cand[li], ctx.Iter[k])
					}
				}
			}
			if st.touch(int64(li - from)) {
				return
			}
		}
		i = j
	}
}

// MergePairs merges two (pre, iter)-sorted pair lists, dropping pairs
// present in both.
func MergePairs(a, b Pairs) Pairs {
	out := Pairs{Pre: make([]int32, a.Len()+b.Len()), Iter: make([]int32, a.Len()+b.Len())}
	i, j, k := 0, 0, 0
	for ; i < a.Len() || j < b.Len(); k++ {
		var d int // < 0: take a, > 0: take b, 0: equal, take one
		switch {
		case j >= b.Len():
			d = -1
		case i >= a.Len():
			d = 1
		case a.Pre[i] != b.Pre[j]:
			d = int(a.Pre[i]) - int(b.Pre[j])
		default:
			d = int(a.Iter[i]) - int(b.Iter[j])
		}
		if d <= 0 {
			out.Pre[k], out.Iter[k] = a.Pre[i], a.Iter[i]
			i++
		} else {
			out.Pre[k], out.Iter[k] = b.Pre[j], b.Iter[j]
		}
		if d >= 0 {
			j++
		}
	}
	return Pairs{Pre: out.Pre[:k], Iter: out.Iter[:k]}
}
