// Chunked operator execution. Every partitionable operator — Select,
// RowNum, Aggr, Step, AttrStep, Fun, the HashJoin build and probe, the
// gathers — is written once, as a body over one contiguous row range
// [lo, hi) (or one task: a container segment, a column, a key
// partition), plus an in-order concatenation of the per-chunk outputs.
// Serial execution is the one-chunk case of the same body: chunks
// returns the single range [0, n) unless Par asks for more, a lone
// chunk runs on the calling goroutine, and concat adopts a lone chunk's
// slices without copying. Chunk bodies build their lists in the
// execution's scratch region (arena.go); settle moves them to a column.
// This file is the only place that reads Par (stepSegRun hands the
// worker budget on to scj); operators never branch on it.
//
// Chunk boundaries respect iter/part group runs or identical-item runs
// (the cuttable predicate), so every group is processed by exactly one
// worker in row order and the concatenated outputs are byte-identical
// whatever the chunk count — including floating-point aggregates, whose
// per-group accumulation order never changes. Operators whose
// decomposition would reorder work (Sort, ExistJoin, ElemConstruct,
// EBV) always run as one chunk.
//
// Workers only read shared state (the plan, the input tables, the
// container pool) and write to disjoint output ranges or chunk-local
// buffers, so the executor is race-free by construction; the test suite
// runs the full differential corpus under -race to enforce this. Every
// chunk and task starts with a stopRequested poll, so a cancelled
// context or an exhausted memory budget skips the work not yet begun.

package ralg

import (
	"runtime"

	"mxq/internal/scj"
)

// DefaultParThreshold is the minimum input row count (or document span,
// for range-partitioned steps) at which an operator goes parallel;
// smaller inputs are not worth the goroutine handoff.
const DefaultParThreshold = 2048

// ParOptions configures intra-query parallelism of an Exec. The zero
// value (Workers <= 1, or no Slots) executes everything serially.
type ParOptions struct {
	// Workers bounds the number of concurrently running goroutines of
	// one fork-join region: the chunk count, and under a scheduler the
	// execution's granted worker budget.
	Workers int
	// Threshold is the minimum input size to parallelize an operator.
	Threshold int
	// Slots is where fork-join regions draw their extra goroutines from:
	// the engine's own pool or a scheduler grant, shared with every other
	// execution holding it, so together they never exceed the pool size.
	// Acquisition never blocks — a region granted no slots (or given no
	// Slots) runs its chunks serially on its own goroutine.
	Slots scj.Slots
}

// DefaultParOptions sizes the worker pool by GOMAXPROCS.
func DefaultParOptions() ParOptions {
	return ParOptions{Workers: runtime.GOMAXPROCS(0), Threshold: DefaultParThreshold}
}

// on reports whether an operator over n rows should run parallel.
func (p ParOptions) on(n int) bool {
	return p.Workers > 1 && p.Threshold > 0 && n >= p.Threshold
}

// splitRuns cuts [0, n) into at most chunks contiguous non-empty
// [lo, hi) ranges of near-equal size, moving each cut forward until
// cuttable(i) reports that a chunk may start at row i — e.g.
// "part[i] != part[i-1]" keeps iter groups intact (nil means every row
// is cuttable). A single run spanning everything yields one chunk.
func splitRuns(n, chunks int, cuttable func(i int) bool) [][2]int {
	if chunks > n {
		chunks = n
	}
	var out [][2]int
	start := 0
	for k := 0; k < chunks && start < n; k++ {
		end := n * (k + 1) / chunks
		if end <= start {
			continue
		}
		for cuttable != nil && end < n && !cuttable(end) {
			end++
		}
		out = append(out, [2]int{start, end})
		start = end
	}
	return out
}

// int64sNonDecreasing reports whether s is sorted ascending (the usual
// state of iter/part columns, which makes group-aligned chunking exact).
func int64sNonDecreasing(s []int64) bool {
	for i := 1; i < len(s); i++ {
		if s[i] < s[i-1] {
			return false
		}
	}
	return true
}

// chunks is the one chunking decision: the row ranges an operator over
// n rows runs its per-chunk body on. Below the parallel threshold that
// is the single range [0, n); above it, up to Par.Workers ranges cut
// where cuttable allows (see splitRuns).
func (e *Exec) chunks(n int, cuttable func(i int) bool) [][2]int {
	if !e.Par.on(n) {
		return [][2]int{{0, n}}
	}
	return splitRuns(n, e.Par.Workers, cuttable)
}

// groupChunks chunks the rows of a part column at group boundaries, for
// operators that keep per-group state. That is only sound when equal
// part values are adjacent, so an unclustered column takes one chunk.
func (e *Exec) groupChunks(part []int64) [][2]int {
	rs := e.chunks(len(part), func(i int) bool { return part[i] != part[i-1] })
	if len(rs) > 1 && !int64sNonDecreasing(part) {
		return [][2]int{{0, len(part)}}
	}
	return rs
}

// forTasks runs f(0..n-1) on the worker pool and waits: the chunks of
// forChunks, or work units that are not row ranges — a Step's container
// segments, a hash build's key partitions. f(k) must write only task-k
// state. A task whose turn comes after the execution was cancelled or
// ran out of budget is skipped: its output stays empty and Run discards
// the partial table.
func (e *Exec) forTasks(n int, f func(k int)) { e.runTasks(e.Par.Workers, n, f) }

// runTasks is forTasks on at most workers goroutines, drawn from
// Par.Slots; one task, or one worker, runs on the calling goroutine.
func (e *Exec) runTasks(workers, n int, f func(k int)) {
	scj.ParRunSlots(e.Par.Slots, workers, n, func(k int) {
		if e.stopRequested() {
			return
		}
		f(k)
	})
}

// forChunks runs body over every range of rs; body(k, lo, hi) must
// write only chunk-k state or rows of its own range.
func (e *Exec) forChunks(rs [][2]int, body func(k, lo, hi int)) {
	e.forTasks(len(rs), func(k int) { body(k, rs[k][0], rs[k][1]) })
}

// chunkFill runs fill over the row chunks of [0, n): the driver of
// operators whose output is one preallocated column with a row per
// input row.
func (e *Exec) chunkFill(n int, fill func(lo, hi int)) {
	e.forChunks(e.chunks(n, nil), func(_, lo, hi int) { fill(lo, hi) })
}

// chunkPairs produces (lidx, ridx) join-pair lists: gen emits the pairs
// for input rows [lo, hi) into fresh slices, and the chunk outputs are
// concatenated in chunk order, which is the one-chunk emission order.
func (e *Exec) chunkPairs(nrows int, gen func(lo, hi int) ([]int32, []int32)) ([]int32, []int32) {
	rs := e.chunks(nrows, nil)
	ls := make([][]int32, len(rs))
	rds := make([][]int32, len(rs))
	e.forChunks(rs, func(k, lo, hi int) { ls[k], rds[k] = gen(lo, hi) })
	return concat(e, ls), concat(e, rds)
}

// concat joins per-chunk scratch lists (or chunk-owned heap slices) in
// chunk order. A lone chunk's slice is adopted as the result, not copied
// — the serial case pays nothing for being expressed as chunks.
func concat[T any](e *Exec, parts [][]T) []T {
	if len(parts) == 1 {
		return parts[0]
	}
	return concatIn(e, scratchRegion, parts)
}

// settle copies lists built in scratch — chunk outputs, or one list of
// a size only known once it was built — into one out-region column of
// exactly their total size: the only way scratch contents reach a table.
func settle[T any](e *Exec, parts ...[]T) []T { return concatIn(e, outRegion, parts) }

func concatIn[T any](e *Exec, rg regionID, parts [][]T) []T {
	total := 0
	for _, p := range parts {
		total += len(p)
	}
	out := dirty[T](e, rg, total)
	o := 0
	for _, p := range parts {
		o += copy(out[o:], p)
	}
	return out
}

// forCols runs f once per column of a gather over rows index entries:
// columns gather independently, concurrently when the index is large.
func (e *Exec) forCols(rows, ncols int, f func(i int)) {
	workers := 1
	if e.Par.on(rows) {
		workers = e.Par.Workers
	}
	e.runTasks(workers, ncols, f)
}

// keyPartitions is the number of key-hash partitions a hash-join build
// over n rows uses: one per worker when the build goes parallel.
func (e *Exec) keyPartitions(n int) int {
	if !e.Par.on(n) {
		return 1
	}
	return e.Par.Workers
}

// identityIdx reports whether idx selects each of n rows once, in order:
// gathering by it would copy the input.
func identityIdx(idx []int32, n int) bool {
	if len(idx) != n {
		return false
	}
	for i, j := range idx {
		if int(j) != i {
			return false
		}
	}
	return true
}

// gather is Table.Gather with the columns as tasks and the arena as the
// allocator: the materializing tail of every row-selecting operator.
// An operator that selected every row gets its input back.
func (e *Exec) gather(t *Table, idx []int32) *Table {
	if identityIdx(idx, t.N) {
		return t
	}
	out := &Table{N: len(idx), names: append([]string(nil), t.names...)}
	out.cols = make([]Col, len(t.cols))
	e.forCols(len(idx), len(t.cols), func(i int) { out.cols[i] = t.cols[i].gatherIn(e, outRegion, idx) })
	return out
}
