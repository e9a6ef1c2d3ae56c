// Block emission. A step kernel never grows a slice: it writes result
// pairs into fixed-capacity blocks drawn from a pool, so emitting k pairs
// touches O(k) fresh memory, nothing is re-copied on growth and nothing
// is zeroed on reuse. The finished block list is handed to the sink as it
// is — the relational executor widens it straight into its own columns,
// Step flattens it into one exact-size Pairs — and the blocks go back to
// the pool. Either way the pairs are copied exactly once.

package scj

import (
	"slices"
	"sync"
	"sync/atomic"
)

// blockCap is the pair capacity of one block: 32 KB, small enough that
// the pool never pins a whole result, large enough that the per-block
// work (a pool round trip and one budget charge) vanishes per pair.
const blockCap = 4096

// minRoom is the least free space room hands to a bulk loop; a block
// with less left is sealed early rather than filled a few pairs at a time.
const minRoom = 256

type block struct{ pre, iter [blockCap]int32 }

var blockPool = sync.Pool{New: func() any { return new(block) }}

// liveBlocks counts blocks taken from the pool and not yet returned; the
// tests read it to prove that no path — a Stop mid-block included —
// leaks one.
var liveBlocks atomic.Int64

// Blocks is a step result as the kernels produce it: consecutive
// segments that together hold the pairs in (pre, iter) order. The
// segments alias pooled blocks, so the consumer copies them out and then
// calls Release; the segments must not be used afterwards.
type Blocks struct {
	Segs  []Pairs
	owned []*block
}

// Len returns the number of pairs.
func (b *Blocks) Len() int {
	n := 0
	for i := range b.Segs {
		n += len(b.Segs[i].Pre)
	}
	return n
}

// Release returns the blocks to the pool.
func (b *Blocks) Release() {
	for _, blk := range b.owned {
		blockPool.Put(blk)
	}
	liveBlocks.Add(-int64(len(b.owned)))
	*b = Blocks{}
}

// Pairs flattens the result into one exact-size relation and releases
// the blocks. A result that already is one unpooled segment (a merged
// parallel result) is adopted, not copied. The copy is charged to the
// budget behind st (nil: none) first; refused, the result is empty.
//
// cancelcheck:exempt memory-bound copies of the segments
func (b Blocks) Pairs(st *Stats) Pairs {
	if len(b.Segs) == 1 && len(b.owned) == 0 {
		return b.Segs[0]
	}
	var out Pairs
	if n := b.Len(); n > 0 && st.charge(n) {
		out = Pairs{Pre: make([]int32, n), Iter: make([]int32, n)}
		off := 0
		for _, s := range b.Segs {
			copy(out.Pre[off:], s.Pre)
			off += copy(out.Iter[off:], s.Iter)
		}
	}
	b.Release()
	return out
}

// packPair maps a pair to a uint64 that orders like (pre, iter).
func packPair(pre, iter int32) uint64 { return uint64(pre)<<32 | uint64(uint32(iter)^1<<31) }

func unpackPair(k uint64) (pre, iter int32) { return int32(k >> 32), int32(uint32(k) ^ 1<<31) }

// sort establishes the (pre, iter) order across the segments in place:
// the pairs are packed into uint64 keys and, unless those turn out to be
// in order already, sorted and written back into the same blocks.
func (b *Blocks) sort() {
	keys := make([]uint64, 0, b.Len())
	for _, s := range b.Segs {
		for i := range s.Pre {
			keys = append(keys, packPair(s.Pre[i], s.Iter[i]))
		}
	}
	if slices.IsSorted(keys) {
		return
	}
	slices.Sort(keys)
	for _, s := range b.Segs {
		for i := range s.Pre {
			s.Pre[i], s.Iter[i] = unpackPair(keys[i])
		}
		keys = keys[len(s.Pre):]
	}
}

// emitter is the one sink of every kernel: it fills the current block
// and seals it into out when full. Each sealed block is charged to the
// step's Stats (8 B per pair), so a runaway step trips the memory budget
// — and with it Stop — while it is still emitting, serial or parallel.
type emitter struct {
	out      Blocks
	cur      *block
	fill     int
	unsorted bool // a kernel emitted out of (pre, iter) order: finish sorts
	st       *Stats
}

func newEmitter(st *Stats) *emitter { return &emitter{fill: blockCap, st: st} }

// emit appends one result pair.
func (em *emitter) emit(pre, iter int32) {
	if em.fill == blockCap {
		em.grow()
	}
	em.cur.pre[em.fill], em.cur.iter[em.fill] = pre, iter
	em.fill++
}

// room returns the free tails of the current block, at least minRoom
// long, for a bulk loop to fill; the loop reports what it wrote by
// advancing fill.
func (em *emitter) room() (pre, iter []int32) {
	if em.fill > blockCap-minRoom {
		em.grow()
	}
	return em.cur.pre[em.fill:], em.cur.iter[em.fill:]
}

// seal moves the filled part of the current block into out.
func (em *emitter) seal() {
	if em.cur != nil {
		em.out.Segs = append(em.out.Segs, Pairs{Pre: em.cur.pre[:em.fill], Iter: em.cur.iter[:em.fill]})
		em.out.owned = append(em.out.owned, em.cur)
		em.st.charge(em.fill)
		em.cur = nil
	}
}

func (em *emitter) grow() {
	em.seal()
	em.cur, em.fill = blockPool.Get().(*block), 0
	liveBlocks.Add(1)
}

// finish seals the last block and returns the result in (pre, iter)
// order.
func (em *emitter) finish() Blocks {
	em.seal()
	if em.unsorted {
		em.out.sort()
	}
	return em.out
}
