// Parallel staircase join: the loop-lifted step algorithms of this
// package partition cleanly because an XPath step is, per iteration, a
// union over the context nodes of that iteration — pruning and
// partitioning only avoid emitting the same (node, iter) pair twice.
// Two decompositions exploit this:
//
//   - Context partitioning: the (pre, iter)-sorted context relation is
//     cut into contiguous chunks at pre boundaries; plain staircase join
//     runs on each chunk concurrently, and the per-chunk results are
//     merged back into (pre, iter) order with duplicate elimination
//     (duplicates arise exactly where serial pruning would have fired
//     across a chunk boundary). This suits steps with many context
//     nodes: child, self, parent, ancestor, sibling and the
//     following/preceding axes.
//
//   - Document-range partitioning: descendant steps with few context
//     nodes but large covered regions (the //x workhorse) are split
//     along the pre axis instead. Each worker scans one pre range,
//     seeding its stack with the context nodes whose region covers the
//     range start, so every document position is visited by exactly one
//     worker and the concatenated outputs equal the serial result
//     byte for byte. The candidate-list variant chunks the element-name
//     posting list the same way.
//
// All workers write into worker-local blocks and Stats; nothing shared is
// mutated (the budget hook behind Stats.Charge is concurrency-safe), so
// the parallel step is safe under the race detector by construction.

package scj

import (
	"slices"
	"sync"
	"sync/atomic"

	"mxq/internal/faults"
	"mxq/internal/store"
)

// Slots is the slot-acquisition hook of the fork-join helpers and the
// only source of their extra worker goroutines: a bounded pool (a
// sched.Pool, or a scheduler grant drawing on one) shared by every
// execution that holds it, so the live worker count across all of them
// stays bounded by the pool size. AcquireSlots must not block: it
// returns 0..want immediately, and a region granted 0 slots runs its
// chunks serially on the calling goroutine (progress is guaranteed, so
// there is no deadlock by construction). Implementations must be safe
// for concurrent use.
type Slots interface {
	AcquireSlots(want int) int
	ReleaseSlots(n int)
}

// ParRunSlots executes f(0..n-1) on at most workers concurrent
// goroutines and waits for all of them: the bounded fork-join helper
// shared by this package and the ralg operator layer. The caller
// always participates, and up to workers-1 extra goroutines are
// acquired from sl; a nil sl grants none, so the chunks run serially.
// Chunks are handed out through an atomic cursor, so every index runs
// exactly once; callers must make f(i) write only chunk-i state.
//
// A panic on a worker goroutine is captured and re-raised on the
// calling goroutine after every worker has drained, so the execution
// boundary's recover contains it like any caller-side panic — a worker
// must never be able to kill the process or leak its siblings.
func ParRunSlots(sl Slots, workers, n int, f func(int)) {
	extra := 0
	if sl != nil && workers > 1 && n > 1 {
		extra = sl.AcquireSlots(min(workers, n) - 1)
		defer sl.ReleaseSlots(extra)
	}
	if extra == 0 {
		for i := 0; i < n; i++ {
			f(i)
		}
		return
	}
	var next atomic.Int64
	work := func() {
		for {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			f(i)
		}
	}
	var panicOnce sync.Once
	var panicVal any
	var wg sync.WaitGroup
	for w := 0; w < extra; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					panicOnce.Do(func() { panicVal = r })
				}
			}()
			// workers have no error return path, so an injected fork
			// fault surfaces as a worker panic — exercising exactly the
			// containment above
			if err := faults.SCJFork.Err(); err != nil {
				panic(err)
			}
			work()
		}()
	}
	func() {
		// a panicking caller drains its workers too: they write into
		// memory the execution releases as it unwinds
		defer wg.Wait()
		work()
	}()
	if panicVal != nil {
		panic(panicVal)
	}
}

// splitPairsByPre cuts ctx into at most chunks contiguous sub-relations,
// never splitting a run of equal pre values (so per-pre iteration groups
// stay intact within one chunk). The sub-relations alias ctx's storage.
func splitPairsByPre(ctx Pairs, chunks int) []Pairs {
	n := ctx.Len()
	if chunks > n {
		chunks = n
	}
	var out []Pairs
	start := 0
	for k := 0; k < chunks && start < n; k++ {
		end := (n * (k + 1)) / chunks
		if end <= start {
			continue
		}
		for end < n && ctx.Pre[end] == ctx.Pre[end-1] {
			end++
		}
		out = append(out, Pairs{Pre: ctx.Pre[start:end], Iter: ctx.Iter[start:end]})
		start = end
	}
	return out
}

// mergePairsTree folds a non-empty list of sorted pair lists with
// pairwise merges, each charged to st before it is allocated; refused,
// or cancelled, the fold stops and the result is empty.
func mergePairsTree(outs []Pairs, st *Stats) Pairs {
	for len(outs) > 1 {
		next := outs[:0:0]
		for i := 0; i < len(outs); i += 2 {
			if i+1 < len(outs) {
				if st.stopped() || !st.charge(outs[i].Len()+outs[i+1].Len()) {
					return Pairs{}
				}
				next = append(next, MergePairs(outs[i], outs[i+1]))
			} else {
				next = append(next, outs[i])
			}
		}
		outs = next
	}
	return outs[0]
}

// StepBlocks is the one entry to the step kernels: it evaluates the step
// serially (workers <= 1, or an input below threshold) or decomposed —
// over up to workers goroutines drawn from sl (see Slots) when the
// input is large enough (threshold context rows
// for context partitioning, threshold document tuples for range
// partitioning) — and returns the result as the blocks the kernels
// filled. The caller copies the segments out and calls Release; Step is
// the serial run followed by Blocks.Pairs. Decomposed, the result is
// identical to Step's — same pairs, same (pre, iter) order — so serial
// execution remains the differential-testing oracle.
//
// Stats count the total work performed across all workers: Emitted
// equals the merged result size exactly, but Touched/Pruned include the
// per-worker seeding and context-walk replays, so they can exceed the
// serial counters for the same query. That surplus is the real cost of
// the decomposition, not an accounting error.
func StepBlocks(sl Slots, c *store.Container, ctx Pairs, axis Axis, test Test, v Variant, workers, threshold int, st *Stats) Blocks {
	if st == nil {
		st = &Stats{}
	}
	out, ok := Blocks{}, false
	if workers > 1 && threshold > 0 && ctx.Len() > 0 {
		if axis == Descendant || axis == DescendantOrSelf {
			out, ok = parDescendant(sl, c, ctx, axis == DescendantOrSelf, test, v, workers, threshold, st)
		}
		if !ok && ctx.Len() >= threshold {
			if chunks := splitPairsByPre(ctx, workers); len(chunks) > 1 {
				out, ok = parByContext(sl, c, chunks, axis, test, v, workers, st), true
			}
		}
	}
	if !ok {
		out = serialStep(c, ctx, axis, test, v, st)
	}
	st.Emitted += int64(out.Len())
	return out
}

// forkStats runs f(k, worker-local stats) for k in [0, n) on the pool
// and sums the workers' touch and prune counters into st; the workers
// share st's Stop and Charge hooks.
func forkStats(sl Slots, workers, n int, st *Stats, f func(k int, wst *Stats)) {
	stats := make([]Stats, n)
	ParRunSlots(sl, workers, n, func(k int) {
		stats[k] = Stats{Stop: st.Stop, Charge: st.Charge}
		f(k, &stats[k])
	})
	for k := range stats {
		st.Touched += stats[k].Touched
		st.Pruned += stats[k].Pruned
	}
}

// parByContext runs staircase join on context chunks concurrently and
// merges the chunk results. Valid for every axis because the per-chunk
// results are each duplicate-free per iteration and the merge removes
// the duplicates serial pruning would have caught across chunks.
func parByContext(sl Slots, c *store.Container, chunks []Pairs, axis Axis, test Test, v Variant, workers int, st *Stats) Blocks {
	outs := make([]Pairs, len(chunks))
	forkStats(sl, workers, len(chunks), st, func(k int, wst *Stats) {
		outs[k] = serialStep(c, chunks[k], axis, test, v, wst).Pairs(wst)
	})
	return Blocks{Segs: []Pairs{mergePairsTree(outs, st)}}
}

// parDescendant evaluates a descendant(-or-self) step with document-
// range partitioning, reporting ok=false when the covered region is too
// small to bother or the variant is the per-iteration ablation baseline.
// The covered pre space [lo, hi] — or, for the candidate-list variant,
// the ascending candidate list — is cut into ranges swept concurrently.
// Every document position (every candidate) belongs to exactly one
// worker, and the region stack at any position depends only on ctx, so
// the chunk outputs concatenate to exactly the serial result.
func parDescendant(sl Slots, c *store.Container, ctx Pairs, orSelf bool, test Test, v Variant, workers, threshold int, st *Stats) (Blocks, bool) {
	if v == Iterative {
		return Blocks{}, false
	}
	lo := ctx.Pre[0]
	hi := lo
	for _, pre := range ctx.Pre {
		hi = max(hi, pre+c.Size[pre])
	}
	if int(hi-lo) < threshold {
		return Blocks{}, false
	}
	cand, useCand := candidates(c, test)
	useCand = useCand && v == CandidateList
	span := int(hi + 1 - lo)
	if useCand {
		span = len(cand)
	}
	chunks := max(min(workers, span), 1)
	t := compileTest(c, test)
	outs := make([]Blocks, chunks)
	forkStats(sl, workers, chunks, st, func(k int, wst *Stats) {
		em := newEmitter(wst)
		if klo, khi := span*k/chunks, span*(k+1)/chunks; useCand {
			// each worker replays the context walk over its candidate slice
			candDescendant(c, ctx, cand[klo:khi], orSelf, em)
		} else {
			scanDescendantRange(c, ctx, &t, orSelf, lo+int32(klo), lo+int32(khi), em)
		}
		outs[k] = em.finish()
	})
	for _, o := range outs[1:] { // disjoint ascending ranges: no merge needed
		outs[0].Segs, outs[0].owned = append(outs[0].Segs, o.Segs...), append(outs[0].owned, o.owned...)
	}
	return outs[0], true
}

// scanDescendantRange is the descendant sweep restricted to pre positions
// [rlo, rhi): the stack is pre-seeded with the contexts whose region
// covers rlo (they nest, so ascending pre order is stack order), context
// nodes inside the range push as in the full sweep, and the scan stops
// at the range end. With orSelf a context node joins the result of its
// own iterations too: its region is pushed before the node is tested.
func scanDescendantRange(c *store.Container, ctx Pairs, t *nodeTest, orSelf bool, rlo, rhi int32, em *emitter) {
	var rg regions
	st := em.st
	n := int32(ctx.Len())
	// seed: contexts starting before the range whose region reaches into it
	seedEnd, _ := slices.BinarySearch(ctx.Pre, rlo)
	nxt := int32(seedEnd)
	for i := int32(0); i < nxt; {
		j := runEnd(ctx, i, nxt)
		if eos := ctx.Pre[i] + c.Size[ctx.Pre[i]]; eos >= rlo {
			st.Pruned += rg.push(ctx.Iter[i:j], eos)
		}
		i = j
	}
	for p := rlo; p < rhi; {
		rg.popBefore(p)
		if len(rg.frames) == 0 {
			// skipping: jump to the next context inside the range
			if nxt >= n || ctx.Pre[nxt] >= rhi {
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
		stop := min(rg.frames[len(rg.frames)-1].eos, rhi-1)
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
// touch count and polls Stop once.
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
