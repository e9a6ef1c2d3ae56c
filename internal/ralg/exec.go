package ralg

import (
	"cmp"
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
	SortsPresorted      int64
	RowsPresorted       int64
	HashJoins, PosJoins int64 // equi-joins run by hashing / by position
	ExistHashJoins      int64 // existential eq joins run as a hash table
	ThetaNL             int64 // theta joins executed nested-loop
	ThetaIdx            int64 // theta joins executed via transient index
	ThetaPairs          int64 // (iter1, iter2) pairs the theta joins emitted
	ExistAggr           int64 // theta joins reduced to per-iter extrema (Fig. 8b)
	CrossRows           int64 // rows produced by Cartesian products
	TransientRows       int64 // rows the element constructors appended to the transient container
	TransientRegrows    int64 // element constructors that found it too small and moved its columns
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

// Exec evaluates plan schedules against a container pool, each numbered
// node once, in number order. Every operator has one body, run once over
// all its input rows on the calling goroutine. One Exec evaluates one
// query; concurrent queries each get their own Exec (and their own
// transient container), sharing only the read-only document containers.
// ContextDoc names the document ContextRoot leaves (absolute paths)
// resolve to; Bindings supplies the values of ParamTable leaves.
//
// Ctx carries the execution's cancellation signal (deadline, client
// disconnect): RunSchedule checks it on entry and around every
// operator, and the long-running operator loops — staircase-join steps,
// joins, Cartesian products, aggregation, range generation — poll it
// every few thousand rows and abandon their remaining work.
// Partial outputs never escape: RunSchedule returns the context error
// instead of a table produced under a cancelled context. A nil Ctx (the
// default) disables all checks. The radix sort kernel polls once per
// pass; comparison sorts (string keys, small inputs) run to completion,
// so a cancelled query returns within one of those.
//
// Mem is the execution's memory budget (nil = unlimited), metered where
// memory is handed out (carve): a request it refuses ends the operator
// and RunSchedule returns the typed resource-exhausted error. An exceeded
// budget also trips the stopRequested poll, so the running loop stops.
//
// Row-sized pointer-free columns come from a pooled arena (arena.go):
// Release hands it back, after which no table of this Exec may be read.
// An Exec that is never released is collected like any other value.
type Exec struct {
	Pool       *store.Pool
	Transient  *store.Container
	SizeHint   int // rows the statement's last execution built in Transient (0: unknown)
	Stats      ExecStats
	ContextDoc string
	Bindings   Bindings
	Ctx        context.Context
	Mem        *MemBudget

	done <-chan struct{} // Ctx.Done(), captured at RunSchedule entry
	mem  execMem         // the arena behind every row-sized column (arena.go)
}

// NewExec returns an executor over the given pool. Transient nodes
// constructed during execution are placed in transient, which must be
// registered with the pool.
func NewExec(pool *store.Pool, transient *store.Container) *Exec {
	return &Exec{Pool: pool, Transient: transient}
}

// Run numbers p and runs it (RunSchedule); kept for bench/, which runs roots.
func (e *Exec) Run(p Plan) (*Table, error) { return e.RunSchedule(NewSchedule(p)) }

// RunSchedule evaluates the schedule in number order and returns its
// root's table. When Ctx is set and expires mid-execution, it returns the
// context error promptly — never a partial result.
func (e *Exec) RunSchedule(s Schedule) (*Table, error) {
	if e.Ctx != nil {
		e.done = e.Ctx.Done()
		if err := e.Ctx.Err(); err != nil {
			return nil, err
		}
	}
	tabs, in := make([]*Table, len(s)), make([]*Table, 0, 4)
	for i, op := range s {
		in = in[:0]
		for _, k := range op.In {
			in = append(in, tabs[k])
		}
		if err := faults.RalgOp.Err(); err != nil {
			return nil, err
		}
		t, err := e.runOp(op.Plan, in)
		if err != nil {
			return nil, err
		}
		// an operator that observed the cancellation or an exhausted memory
		// budget may have stopped early with a partial table: surface the
		// error instead of keeping it (context first, matching the
		// precedence a cancelled-and-over-budget execution reports)
		if err := e.stopErr(); err != nil {
			return nil, err
		}
		if t.N > MaxRows {
			return nil, xqerr.Newf(xqerr.CodeResourceLimit,
				"intermediate result of %s exceeds the %d-row limit", op.Plan.Name(), MaxRows)
		}
		tabs[i] = t
	}
	return tabs[len(tabs)-1], nil
}

// runOp applies one operator and ends its lifetime on every path: no
// table column may reference scratch memory, an operator that a refused
// memory request unwound fails with the budget's error, and one that
// read a column as a kind it does not hold (wrongTag) fails with an
// internal error. An execution that is already cancelled or over budget
// runs no operator.
func (e *Exec) runOp(p Plan, in []*Table) (t *Table, err error) {
	if e.stopRequested() {
		return nil, e.stopErr()
	}
	defer func() {
		e.resetScratch()
		switch r := recover().(type) {
		case nil:
		case overBudget:
			t, err = nil, e.Mem.Err()
		case wrongTag:
			t, err = nil, fmt.Errorf("ralg: %s: %w", p.Name(), r)
		default:
			panic(r)
		}
	}()
	return e.apply(p, in)
}

// stopRequested reports whether the execution's context has expired or
// its memory budget is exhausted; it is the cheap poll the operator
// loops amortize over a few thousand rows.
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
		return e.execRoot(n.Doc)
	case *ContextRoot:
		if e.ContextDoc == "" {
			return nil, xqerr.Newf("XPDY0002", "absolute path but no context document")
		}
		return e.execRoot(e.ContextDoc)
	case *ParamTable:
		return e.execParam(n)
	case *CollectionRoot:
		return e.execCollectionRoot(n)
	case *Fail:
		return nil, xqerr.Newf(n.Code, "%s", n.Msg)
	case *Project:
		return execProject(n, in[0])
	case *Attach:
		return in[0].withCol(n.Col, e.constItemVec(n.It, in[0].N)), nil
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
	case *ElemConstruct:
		return e.execElem(n, in)
	case *EBV:
		return e.execEBV(n, in[0])
	case *CardCheck:
		return e.execCardCheck(n, in[0])
	case *RangeGen:
		return e.execRangeGen(n, in[0])
	case *CoverCheck:
		return e.execCoverCheck(n, in[0], in[1])
	}
	return nil, fmt.Errorf("ralg: unknown operator %T", p)
}

// execRangeGen expands each row's bounds, atomized and converted by
// xqt.IntegerArg, into its integers; rows are counted without overflow.
func (e *Exec) execRangeGen(n *RangeGen, in *Table) (*Table, error) {
	iters := in.Ints(n.Iter)
	lo, hi := e.cast(FunAtomize, in.Col(n.Lo)), e.cast(FunAtomize, in.Col(n.Hi))
	first, size := dirty[int64](e, scratchRegion, len(iters)), dirty[int64](e, scratchRegion, len(iters))
	total := int64(0)
	for i := range iters {
		a, err := xqt.IntegerArg(lo.At(i))
		b, err2 := xqt.IntegerArg(hi.At(i))
		if err = cmp.Or(err, err2); err != nil {
			return nil, err
		}
		if first[i], size[i] = a, 0; b >= a {
			if uint64(b-a) >= MaxRows-uint64(total) {
				return nil, xqerr.Newf(xqerr.CodeResourceLimit, "ranges exceed the %d-row limit", MaxRows)
			}
			size[i] = b - a + 1
		}
		total += size[i]
	}
	ic, pc, tc := e.uniformVec(xqt.KInt, int(total)), e.uniformVec(xqt.KInt, int(total)), e.uniformVec(xqt.KInt, int(total))
	o := 0
	for i := range iters {
		for k := range size[i] {
			if o&(1<<16-1) == 1<<16-1 && e.stopRequested() {
				return nil, e.stopErr()
			}
			ic.I[o], pc.I[o], tc.I[o] = iters[i], k+1, first[i]+k
			o++
		}
	}
	return tableOf([]string{"iter", "pos", "item"}, ic, pc, tc), nil
}

// cancelcheck:exempt two memory-bound integer-column scans
func (e *Exec) execCoverCheck(n *CoverCheck, loop, in *Table) (*Table, error) {
	have := e.newKeySet(in.Ints(n.Part))
	for _, it := range loop.Ints(n.LoopIter) {
		if !have.has(it) {
			return nil, xqerr.Newf(n.Code, "%s applied to an empty sequence", n.Fn)
		}
	}
	return in, nil
}

// execRoot resolves a document at execution time (the context document
// too: a plan input, not a compile-time constant) to the one-row (pos,
// item) sequence holding its document node.
func (e *Exec) execRoot(doc string) (*Table, error) {
	c, ok := e.Pool.ByName(doc)
	if !ok {
		return nil, xqerr.Newf("FODC0002", "document %q not loaded", doc)
	}
	return tableOf([]string{"pos", "item"}, ItemsOf(xqt.Int(1)), ItemsOf(xqt.Node(c.ID, 0))), nil
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
	return tableOf([]string{"pos", "item"}, uniformIntCol(e.rowNumbers(v.Len())), v), nil
}

// cancelcheck:exempt loops over collection shards, not rows
func (e *Exec) execCollectionRoot(n *CollectionRoot) (*Table, error) {
	sp, ok := e.Pool.Collection(n.Coll)
	if !ok {
		return nil, xqerr.Newf("FODC0004", "collection %q not available", n.Coll)
	}
	conts, pres := sp.Roots()
	tc := e.uniformVec(xqt.KNode, len(conts))
	for i := range conts {
		tc.Cont[i], tc.I[i] = conts[i], int64(pres[i])
	}
	return tableOf([]string{"pos", "item"}, uniformIntCol(e.rowNumbers(len(conts))), tc), nil
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

func (e *Exec) execSelect(n *Select, in *Table) *Table {
	idx, o := dirty[int32](e, scratchRegion, in.N), 0
	for i, c := range in.payloadOf(n.Cond, xqt.KBool) {
		if i&8191 == 8191 && e.stopRequested() {
			break // RunSchedule's post-operator checkpoint discards the partial table
		}
		if c != 0 {
			idx[o] = int32(i)
			o++
		}
	}
	return e.gather(in, idx[:o])
}

// seqRank numbers rows 1.. per contiguous part run.
func seqRank(part, rank []int64) {
	var cur int64
	var k int64
	for i, p := range part {
		if i == 0 || p != cur {
			cur, k = p, 0
		}
		k++
		rank[i] = k
	}
}

// rowNumbers returns the dense column 1..n (global row numbering, the
// pos column of a bound sequence).
func (e *Exec) rowNumbers(n int) []int64 {
	out := dirty[int64](e, outRegion, n)
	for i := range out {
		out[i] = int64(i) + 1
	}
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
		return in.withCol(n.Out, uniformIntCol(e.rowNumbers(in.N)))
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
	case n.Mode != RankStream || slices.IsSorted(part):
		// rows arrive in (Part, OrderBy) order — the RankSeq contract, a
		// RankSort input found presorted — or, for RankStream, at least
		// clustered by group: arrival-order counters equal run-local
		// numbering
		seqRank(part, rank)
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
				break // RunSchedule's post-operator checkpoint discards the partial table
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
	return in.withCol(n.Out, uniformIntCol(rank))
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
	out := &Table{names: in[0].names}
	for _, name := range in[0].names {
		vecs := make([]ItemVec, len(in))
		for k, t := range in {
			vecs[k] = *t.Col(name)
		}
		out.cols = append(out.cols, unionVecs(e, vecs))
	}
	if len(out.cols) > 0 {
		out.N = out.cols[0].Len()
	}
	return out
}

// cancelcheck:exempt memory-bound adjacent-equality scan (of a sorted
// scratch copy when Part arrives ungrouped)
func (e *Exec) execCardCheck(n *CardCheck, in *Table) (*Table, error) {
	part := in.Ints(n.Part)
	if !slices.IsSorted(part) {
		part = gatherOf(e, scratchRegion, part, e.SortIdx(in, []string{n.Part}, nil, 0))
	}
	for i := 1; i < len(part); i++ {
		if part[i] == part[i-1] {
			return nil, xqerr.Newf(n.Code, "%s applied to a sequence with more than one item", n.Fn)
		}
	}
	return in, nil
}

// settle copies lists built in scratch — lists of a size only known
// once they were built — into one out-region column of exactly their
// total size: the only way scratch contents reach a table.
func settle[T any](e *Exec, parts ...[]T) []T {
	total := 0
	for _, p := range parts {
		total += len(p)
	}
	out := dirty[T](e, outRegion, total)
	o := 0
	for _, p := range parts {
		o += copy(out[o:], p)
	}
	return out
}

// identityIdx reports whether idx selects each of n rows once, in order:
// gathering by it would copy the input.
func identityIdx(idx []int32, n int) bool {
	return len(idx) == n && (n == 0 || idx[0] == 0 && isRun(idx))
}

// gather is Table.Gather with the arena as the allocator: the
// materializing tail of every row-selecting operator. An operator that
// selected every row gets its input back.
func (e *Exec) gather(t *Table, idx []int32) *Table {
	if identityIdx(idx, t.N) {
		return t
	}
	out := &Table{N: len(idx), names: append([]string(nil), t.names...)}
	out.cols = make([]ItemVec, len(t.cols))
	for i := range t.cols {
		out.cols[i] = t.cols[i].gatherIn(e, outRegion, idx)
	}
	return out
}
