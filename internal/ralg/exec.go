package ralg

import (
	"context"
	"fmt"
	"slices"

	"mxq/internal/faults"
	"mxq/internal/scj"
	"mxq/internal/store"
	"mxq/internal/xqerr"
	"mxq/internal/xqt"
)

// ExecStats accumulates runtime counters across one plan execution.
type ExecStats struct {
	Step       scj.Stats // staircase join counters
	SortedRows int64     // rows passed through sort operators
	FullSorts  int64     // sort operators that ran a full (non-refine) sort
	RefineSort int64     // sort operators that ran in refine mode
	// sort operators (of FullSorts+RefineSort) whose input the kernel's
	// runtime check found already ordered, and their rows (of
	// SortedRows): orderings opt's static inference did not derive
	SortsPresorted   int64
	RowsPresorted    int64
	HashJoins        int64
	PosJoins         int64
	ThetaNL          int64 // theta joins executed nested-loop
	ThetaIdx         int64 // theta joins executed via transient index
	ThetaPairs       int64 // (iter1, iter2) pairs the theta joins emitted
	ExistAggr        int64 // theta joins reduced to per-iter extrema (Fig. 8b)
	CrossRows        int64 // rows produced by Cartesian products
	TransientRows    int64 // rows the element constructors appended to the transient container
	TransientRegrows int64 // element constructors that found it too small and moved its columns
}

// MaxRows bounds intermediate result sizes; exceeding it aborts the query
// with an error (the unoptimized Cartesian-product plans of Figure 13 hit
// this on large documents, like the "materialization out of bounds"
// failures the paper reports for Galax).
const MaxRows = 64 << 20

// Bindings is the binding environment of one plan execution: it maps
// external variable names to their bound sequences, each materialized
// as a typed item vector (see the Bind* constructors). ParamTable
// leaves resolve against it, so the same immutable plan can run under
// any number of binding environments concurrently.
type Bindings map[string]ItemVec

// Exec evaluates plan DAGs against a container pool. Shared sub-plans are
// evaluated once and their results re-used. Par sets how many chunks
// the partitionable operators cut their input into and how many
// goroutines run them (see parallel.go); every operator has one body,
// serial execution is its one-chunk case, and the output does not
// depend on the chunk count. One Exec evaluates one
// query; concurrent queries each get their own Exec (and their own
// transient container), sharing only the read-only document containers.
// ContextDoc names the document ContextRoot leaves (absolute paths)
// resolve to; Bindings supplies the values of ParamTable leaves.
//
// Ctx carries the execution's cancellation signal (deadline, client
// disconnect): Run checks it between operators, and the long-running
// operator loops — staircase-join steps, joins, Cartesian products,
// aggregation, range generation — poll it every few thousand rows and
// at the start of every chunk, and abandon their remaining work.
// Partial outputs never escape: Run returns the context error before
// memoizing a table produced under a cancelled context. A nil Ctx (the
// default) disables all checks. The radix sort kernel polls once per
// pass; comparison sorts (string keys, mixed-tag columns) run to
// completion, so a cancelled query returns within one of those.
//
// Mem is the execution's memory budget (nil = unlimited), metered where
// memory is handed out (carve): a request it refuses ends the operator
// and Run returns the typed resource-exhausted error. An exceeded budget
// also trips the stopRequested poll, so sibling workers drain.
//
// Row-sized pointer-free columns come from a pooled arena (arena.go):
// Release hands it back, after which no table of this Exec may be read.
// An Exec that is never released is collected like any other value.
type Exec struct {
	Pool       *store.Pool
	Transient  *store.Container
	SizeHint   int // rows the statement's last execution built in Transient (0: unknown)
	Stats      ExecStats
	Par        ParOptions
	ContextDoc string
	Bindings   Bindings
	Ctx        context.Context
	Mem        *MemBudget

	memo map[Plan]*Table
	done <-chan struct{} // Ctx.Done(), captured once at Run entry
	mem  execMem         // the arena behind every row-sized column (arena.go)
}

// NewExec returns an executor over the given pool. Transient nodes
// constructed during execution are placed in transient, which must be
// registered with the pool.
func NewExec(pool *store.Pool, transient *store.Container) *Exec {
	return &Exec{Pool: pool, Transient: transient, memo: make(map[Plan]*Table)}
}

// Run evaluates the plan and returns its result table. When Ctx is set
// and expires mid-execution, Run returns the context error promptly —
// never a partial result.
func (e *Exec) Run(p Plan) (*Table, error) {
	if e.Ctx != nil {
		if e.done == nil {
			e.done = e.Ctx.Done()
		}
		if err := e.Ctx.Err(); err != nil {
			return nil, err
		}
	}
	if t, ok := e.memo[p]; ok {
		return t, nil
	}
	in := make([]*Table, 0, 4)
	for _, c := range p.Inputs() {
		t, err := e.Run(c)
		if err != nil {
			return nil, err
		}
		in = append(in, t)
	}
	if err := faults.RalgOp.Err(); err != nil {
		return nil, err
	}
	t, err := e.runOp(p, in)
	if err != nil {
		return nil, err
	}
	// an operator that observed the cancellation or an exhausted memory
	// budget may have stopped early with a partial table: surface the
	// error instead of memoizing it (context first, matching the
	// precedence a cancelled-and-over-budget execution reports)
	if err := e.stopErr(); err != nil {
		return nil, err
	}
	if t.N > MaxRows {
		return nil, xqerr.Newf(xqerr.CodeResourceLimit,
			"intermediate result of %s exceeds the %d-row limit", p.Name(), MaxRows)
	}
	e.memo[p] = t
	return t, nil
}

// runOp applies one operator and ends its lifetime on every path: no
// table column may reference scratch memory, and an operator that a
// refused memory request unwound (workers have drained by then) fails
// with the budget's error.
func (e *Exec) runOp(p Plan, in []*Table) (t *Table, err error) {
	defer func() {
		e.resetScratch()
		if r := recover(); r != nil {
			if _, refused := r.(overBudget); !refused {
				panic(r)
			}
			t, err = nil, e.Mem.Err()
		}
	}()
	return e.apply(p, in)
}

// stopRequested reports whether the execution's context has expired or
// its memory budget is exhausted; it is the cheap poll the operator
// loops amortize over a few thousand rows. Safe to call from worker
// goroutines (it reads the done channel and an atomic flag).
func (e *Exec) stopRequested() bool {
	if e.Mem.Exceeded() {
		return true
	}
	if e.done == nil {
		return false
	}
	select {
	case <-e.done:
		return true
	default:
		return false
	}
}

// stopFunc returns the cancellation poll handed to the staircase-join
// layer, or nil when the execution carries neither a context nor a
// memory budget (so the scj fast path stays branch-free).
func (e *Exec) stopFunc() func() bool {
	if e.Ctx == nil && e.Mem == nil {
		return nil
	}
	return e.stopRequested
}

// stopErr returns the error behind a stopRequested signal: the context
// error when the context expired, the typed budget error when the
// memory budget tripped, nil when neither did.
func (e *Exec) stopErr() error {
	if e.Ctx != nil {
		if err := e.Ctx.Err(); err != nil {
			return err
		}
	}
	return e.Mem.Err()
}

func (e *Exec) apply(p Plan, in []*Table) (*Table, error) {
	switch n := p.(type) {
	case *Lit:
		return n.Tab, nil
	case *LitDecl:
		return n.Tab, nil
	case *DocRoot:
		return e.execDocRoot(n)
	case *ContextRoot:
		return e.execContextRoot()
	case *ParamTable:
		return e.execParam(n)
	case *CollectionRoot:
		return e.execCollectionRoot(n)
	case *Fail:
		return nil, xqerr.Newf(n.Code, "%s", n.Msg)
	case *Project:
		return execProject(n, in[0])
	case *Attach:
		return e.execAttach(n, in[0]), nil
	case *Select:
		return e.execSelect(n, in[0]), nil
	case *Fun:
		return e.execFun(n, in[0])
	case *RowNum:
		return e.execRowNum(n, in[0]), nil
	case *Sort:
		return e.execSort(n, in[0]), nil
	case *HashJoin:
		return e.execHashJoin(n, in[0], in[1])
	case *ExistJoin:
		return e.execExistJoin(n, in[0], in[1])
	case *Cross:
		return e.execCross(n, in[0], in[1])
	case *Union:
		return e.execUnion(in), nil
	case *Diff:
		return e.execDiff(n, in[0], in[1]), nil
	case *Distinct:
		return e.execDistinct(n, in[0]), nil
	case *Aggr:
		return e.execAggr(n, in[0])
	case *Step:
		return e.execStep(n, in[0])
	case *AttrStep:
		return e.execAttrStep(n, in[0])
	case *ElemConstruct:
		return e.execElem(n, in)
	case *EBV:
		return e.execEBV(n, in[0])
	case *CardCheck:
		return execCardCheck(n, in[0])
	case *ColToItem:
		return e.execColToItem(n, in[0]), nil
	case *RangeGen:
		return e.execRangeGen(n, in[0])
	case *CoverCheck:
		return e.execCoverCheck(n, in[0], in[1])
	}
	return nil, fmt.Errorf("ralg: unknown operator %T", p)
}

// execColToItem views an integer or boolean table column as an item
// column: zero-copy for integers (columns are immutable once produced),
// one 0/1 payload vector for booleans.
func (e *Exec) execColToItem(n *ColToItem, in *Table) *Table {
	src := in.Col(n.Src)
	if src.Kind == KItem {
		return in.withCol(n.Dst, *src)
	}
	return in.withCol(n.Dst, e.view(src).col(in.N))
}

func (e *Exec) execRangeGen(n *RangeGen, in *Table) (*Table, error) {
	iters := in.Ints(n.Iter)
	lo, hi := in.ItemVec(n.Lo), in.ItemVec(n.Hi)
	bounds := func(i int) (a, b int64) { return int64(lo.At(i).AsDouble()), int64(hi.At(i).AsDouble()) }
	total := int64(0)
	for i := range iters {
		if a, b := bounds(i); b >= a {
			total += b - a + 1
		}
		if total > MaxRows {
			return nil, xqerr.Newf(xqerr.CodeResourceLimit, "ranges of %d rows and more exceed the %d-row limit", total, MaxRows)
		}
	}
	out := NewTable([]string{"iter", "pos", "item"}, []ColKind{KInt, KInt, KItem})
	ic, pc := dirty[int64](e, outRegion, int(total)), dirty[int64](e, outRegion, int(total))
	tc := e.uniformVec(xqt.KInt, int(total))
	o := 0
	for i := range iters {
		a, b := bounds(i)
		for v := a; v <= b; v++ {
			if o&(1<<16-1) == 1<<16-1 && e.stopRequested() {
				return nil, e.stopErr()
			}
			ic[o], pc[o], tc.I[o] = iters[i], v-a+1, v
			o++
		}
	}
	out.N, out.Col("iter").Int, out.Col("pos").Int, out.Col("item").Item = o, ic, pc, tc
	return out, nil
}

// cancelcheck:exempt two memory-bound integer-column scans
func (e *Exec) execCoverCheck(n *CoverCheck, loop, in *Table) (*Table, error) {
	have := e.newKeySet(in.Ints(n.Part))
	for _, it := range loop.Ints(n.LoopIter) {
		if !have.has(it) {
			return nil, xqerr.Newf("FORG0005", "%s applied to an empty sequence", n.Fn)
		}
	}
	return in, nil
}

// rootTable is the one-row (pos, item) sequence holding c's document
// node.
func rootTable(c *store.Container) *Table {
	t := NewTable([]string{"pos", "item"}, []ColKind{KInt, KItem})
	t.N = 1
	t.Col("pos").Int = []int64{1}
	t.Col("item").Item = ItemsOf(xqt.Node(c.ID, 0))
	return t
}

func (e *Exec) execDocRoot(n *DocRoot) (*Table, error) {
	c, ok := e.Pool.ByName(n.Doc)
	if !ok {
		return nil, xqerr.Newf("FODC0002", "document %q not loaded", n.Doc)
	}
	return rootTable(c), nil
}

// execContextRoot resolves the context document of absolute paths at
// execution time (a plan input, not a compile-time constant).
func (e *Exec) execContextRoot() (*Table, error) {
	if e.ContextDoc == "" {
		return nil, xqerr.Newf("XPDY0002", "absolute path but no context document")
	}
	c, ok := e.Pool.ByName(e.ContextDoc)
	if !ok {
		return nil, xqerr.Newf("FODC0002", "context document %q not loaded", e.ContextDoc)
	}
	return rootTable(c), nil
}

// execParam materializes one external variable binding as its (pos,
// item) table. The item vector is shared with the binding environment
// (vectors are immutable once built), so binding N values costs O(N)
// pos integers and nothing else.
func (e *Exec) execParam(n *ParamTable) (*Table, error) {
	v, ok := e.Bindings[n.Var]
	if !ok {
		return nil, xqerr.Newf("XPDY0002", "no value bound for external variable $%s", n.Var)
	}
	t := NewTable([]string{"pos", "item"}, []ColKind{KInt, KItem})
	t.N = v.Len()
	t.Col("pos").Int = e.rowNumbers(v.Len())
	t.Col("item").Item = v
	return t, nil
}

// cancelcheck:exempt loops over collection shards, not rows
func (e *Exec) execCollectionRoot(n *CollectionRoot) (*Table, error) {
	sp, ok := e.Pool.Collection(n.Coll)
	if !ok {
		return nil, xqerr.Newf("FODC0004", "collection %q not available", n.Coll)
	}
	conts, pres := sp.Roots()
	t := NewTable([]string{"pos", "item"}, []ColKind{KInt, KItem})
	t.N = len(conts)
	pc := t.Col("pos")
	pc.Int = dirty[int64](e, outRegion, len(conts))
	tc := t.Col("item")
	tc.Item = e.uniformVec(xqt.KNode, len(conts))
	for i := range conts {
		pc.Int[i] = int64(i) + 1
		tc.Item.Cont[i] = conts[i]
		tc.Item.I[i] = int64(pres[i])
	}
	return t, nil
}

// cancelcheck:exempt per-column header remap, no per-row work
func execProject(n *Project, in *Table) (*Table, error) {
	out := &Table{N: in.N}
	for _, ref := range n.Cols {
		if !in.HasCol(ref.Src) {
			return nil, fmt.Errorf("ralg: project: no column %q in %v", ref.Src, in.Names())
		}
		out.names = append(out.names, ref.Dst)
		out.cols = append(out.cols, *in.Col(ref.Src))
	}
	return out, nil
}

func (e *Exec) execAttach(n *Attach, in *Table) *Table {
	c := Col{Kind: n.Kind}
	switch n.Kind {
	case KInt:
		c.Int = dirty[int64](e, outRegion, in.N)
		fillWith(c.Int, n.I)
	case KBool:
		c.Bool = dirty[bool](e, outRegion, in.N)
		fillWith(c.Bool, n.B)
	default:
		c.Item = e.constItemVec(n.It, in.N)
	}
	return in.withCol(n.Col, c)
}

func (e *Exec) execSelect(n *Select, in *Table) *Table {
	cond := in.Bools(n.Cond)
	rs := e.chunks(in.N, nil)
	parts := make([][]int32, len(rs))
	e.forChunks(rs, func(k, lo, hi int) {
		local, o := dirty[int32](e, scratchRegion, hi-lo), 0
		for i := lo; i < hi; i++ {
			if (i-lo)&8191 == 8191 && e.stopRequested() {
				break // Run's post-operator checkpoint discards the partial table
			}
			if cond[i] != n.Neg {
				local[o] = int32(i)
				o++
			}
		}
		parts[k] = local[:o]
	})
	return e.gather(in, concat(e, parts))
}

// seqRank numbers rows 1.. per contiguous part run within [lo, hi); lo
// must start a run.
func seqRank(part, rank []int64, lo, hi int) {
	var cur int64
	var k int64
	for i := lo; i < hi; i++ {
		if i == lo || part[i] != cur {
			cur, k = part[i], 0
		}
		k++
		rank[i] = k
	}
}

// rowNumbers returns the dense column 1..n (global row numbering, the
// pos column of a bound sequence).
func (e *Exec) rowNumbers(n int) []int64 {
	out := dirty[int64](e, outRegion, n)
	e.chunkFill(n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out[i] = int64(i) + 1
		}
	})
	return out
}

func (e *Exec) execRowNum(n *RowNum, in *Table) *Table {
	var part []int64
	if n.Part != "" {
		part = in.Ints(n.Part)
	}
	// idx is the order to number rows in; nil numbers them in place
	var idx []int32
	if n.Mode == RankSort {
		by, desc := n.OrderBy, n.Desc
		if part != nil {
			by = append([]string{n.Part}, by...)
			desc = append([]bool{false}, desc...)
		}
		idx = e.SortIdx(in, by, desc, 0)
	}
	if part == nil && idx == nil {
		return in.withCol(n.Out, Col{Kind: KInt, Int: e.rowNumbers(in.N)})
	}
	rank := dirty[int64](e, outRegion, in.N)
	switch {
	case part == nil:
		for r, i := range idx {
			rank[i] = int64(r) + 1
		}
	case idx != nil:
		var cur, k int64
		for r, i := range idx {
			if r == 0 || part[i] != cur {
				cur, k = part[i], 0
			}
			k++
			rank[i] = k
		}
	case n.Mode != RankStream || int64sNonDecreasing(part):
		// rows arrive in (Part, OrderBy) order — the RankSeq contract, a
		// RankSort input found presorted — or, for RankStream, at least
		// clustered by group: arrival-order counters equal run-local
		// numbering, which chunks at run boundaries
		e.forChunks(e.chunks(in.N, func(i int) bool { return part[i] != part[i-1] }),
			func(_, lo, hi int) { seqRank(part, rank, lo, hi) })
	default:
		// hash-based numbering in arrival order per group (§4.1): valid
		// under grpord(OrderBy, Part). Group ids of a narrow range count
		// in a slice; the map is the last resort
		lo, hi := slices.Min(part), slices.Max(part)
		var ctr []int64
		var ctrMap map[int64]int64
		if span := uint64(hi - lo); span <= 4*uint64(in.N) {
			ctr = zeroed[int64](e, scratchRegion, int(span+1))
		} else {
			ctrMap = make(map[int64]int64, 64)
		}
		for i, p := range part {
			if i&8191 == 8191 && e.stopRequested() {
				break // Run's post-operator checkpoint discards the partial table
			}
			if ctr != nil {
				ctr[p-lo]++
				rank[i] = ctr[p-lo]
			} else {
				if rank[i] = ctrMap[p] + 1; rank[i] == 1 {
					e.charge(scratchRegion, 16) // a new group's map entry
				}
				ctrMap[p] = rank[i]
			}
		}
	}
	return in.withCol(n.Out, Col{Kind: KInt, Int: rank})
}

func (e *Exec) execSort(n *Sort, in *Table) *Table {
	e.Stats.SortedRows += int64(in.N)
	if n.RefinePrefix >= len(n.By) {
		return in
	}
	if n.RefinePrefix > 0 {
		e.Stats.RefineSort++
	} else {
		e.Stats.FullSorts++
	}
	idx := e.SortIdx(in, n.By, n.Desc, n.RefinePrefix)
	if idx == nil {
		e.Stats.SortsPresorted++
		e.Stats.RowsPresorted += int64(in.N)
		return in
	}
	return e.gather(in, idx)
}

// cancelcheck:exempt memory-bound column concatenation
func (e *Exec) execUnion(in []*Table) *Table {
	out := &Table{}
	for _, name := range in[0].names {
		c := Col{Kind: in[0].Col(name).Kind}
		ints, bools, vecs := make([][]int64, len(in)), make([][]bool, len(in)), make([]ItemVec, len(in))
		for k, t := range in {
			src := t.Col(name)
			ints[k], bools[k], vecs[k] = src.Int, src.Bool, src.Item
		}
		switch c.Kind {
		case KInt:
			c.Int = settle(e, ints...)
		case KBool:
			c.Bool = settle(e, bools...)
		default:
			c.Item = unionVecs(e, vecs)
		}
		out.names = append(out.names, name)
		out.cols = append(out.cols, c)
	}
	if len(out.cols) > 0 {
		out.N = out.cols[0].Len()
	}
	return out
}

// cancelcheck:exempt memory-bound adjacent-equality scan
func execCardCheck(n *CardCheck, in *Table) (*Table, error) {
	if n.AtMostOne {
		part := in.Ints(n.Part)
		for i := 1; i < len(part); i++ {
			if part[i] == part[i-1] {
				return nil, xqerr.Newf("FORG0003", "%s applied to a sequence with more than one item", n.Fn)
			}
		}
	}
	return in, nil
}
