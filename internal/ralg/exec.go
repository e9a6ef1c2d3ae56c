package ralg

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"
	"unicode/utf8"

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
	SortsPresorted int64
	RowsPresorted  int64
	HashJoins      int64
	PosJoins       int64
	ThetaNL        int64 // theta joins executed nested-loop
	ThetaIdx       int64 // theta joins executed via transient index
	ExistAggr      int64 // theta joins reduced to per-iter extrema (Fig. 8b)
	CrossRows      int64 // rows produced by Cartesian products
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
// evaluated once and their results re-used. Setting Par enables
// intra-query parallel operator execution (see parallel.go); the output
// is identical to serial execution either way. One Exec evaluates one
// query; concurrent queries each get their own Exec (and their own
// transient container), sharing only the read-only document containers.
// ContextDoc names the document ContextRoot leaves (absolute paths)
// resolve to; Bindings supplies the values of ParamTable leaves.
//
// Ctx carries the execution's cancellation signal (deadline, client
// disconnect): Run checks it between operators, and the long-running
// operator loops — staircase-join steps, joins, Cartesian products,
// aggregation, range generation and the parallel fill/gather paths —
// poll it every few thousand rows and abandon their remaining work.
// Partial outputs never escape: Run returns the context error before
// memoizing a table produced under a cancelled context. A nil Ctx (the
// default) disables all checks. The radix sort kernel polls once per
// pass; comparison sorts (string keys, mixed-tag columns) run to
// completion, so a cancelled query returns within one of those.
//
// Mem is the execution's memory budget (nil = unlimited). Operators
// charge the bytes they materialize through charge/chargeTable; an
// exceeded budget trips the same stopRequested poll the cancellation
// machinery uses, so workers drain and partial tables are discarded
// identically, and Run surfaces the typed resource-exhausted error
// instead of memoizing.
type Exec struct {
	Pool       *store.Pool
	Transient  *store.Container
	Stats      ExecStats
	Par        ParOptions
	ContextDoc string
	Bindings   Bindings
	Ctx        context.Context
	Mem        *MemBudget

	memo map[Plan]*Table
	done <-chan struct{} // Ctx.Done(), captured once at Run entry
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
	t, err := e.apply(p, in)
	if err != nil {
		return nil, err
	}
	// an operator that observed the cancellation or an exhausted memory
	// budget may have stopped early with a partial table: surface the
	// error instead of memoizing it (context first, matching the
	// precedence a cancelled-and-over-budget execution reports)
	if e.Ctx != nil {
		if err := e.Ctx.Err(); err != nil {
			return nil, err
		}
	}
	if err := e.Mem.Err(); err != nil {
		return nil, err
	}
	if t.N > MaxRows {
		return nil, xqerr.Newf(xqerr.CodeResourceLimit,
			"intermediate result of %s exceeds the %d-row limit", p.Name(), MaxRows)
	}
	e.memo[p] = t
	return t, nil
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
// memory budget tripped. Returns nil only on a spurious call.
func (e *Exec) stopErr() error {
	if e.Ctx != nil {
		if err := e.Ctx.Err(); err != nil {
			return err
		}
	}
	return e.Mem.Err()
}

// charge accounts n bytes of materialized storage against the memory
// budget; false means the execution is over budget and should stop at
// its next poll.
func (e *Exec) charge(n int64) bool { return e.Mem.Charge(n) }

// chargeTable charges a freshly materialized table's storage. Call it
// only from the operator that allocated the storage — zero-copy views
// over an input must not re-charge shared payload slices.
func (e *Exec) chargeTable(t *Table) bool { return e.Mem.Charge(t.MemBytes()) }

// chargeFunc returns the accounting hook handed to the staircase-join
// layer, or nil when the execution carries no budget.
func (e *Exec) chargeFunc() func(int64) bool {
	if e.Mem == nil {
		return nil
	}
	return e.Mem.Charge
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
		t := execAttach(n, in[0])
		// the attached constant column is the only fresh allocation
		e.charge(t.cols[len(t.cols)-1].MemBytes())
		return t, nil
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
		t := execUnion(in)
		e.chargeTable(t)
		return t, nil
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
		return execColToItem(n, in[0]), nil
	case *RangeGen:
		return e.execRangeGen(n, in[0])
	case *CoverCheck:
		return execCoverCheck(n, in[0], in[1])
	}
	return nil, fmt.Errorf("ralg: unknown operator %T", p)
}

// cancelcheck:exempt zero-copy column view plus one memory-bound flag copy
// alloccheck:exempt zero-copy column view; only the bool case expands one
// flag vector, bounded by a constant factor of the already-charged input
func execColToItem(n *ColToItem, in *Table) *Table {
	src := in.Col(n.Src)
	var v ItemVec
	switch src.Kind {
	case KInt:
		// zero-copy: an integer column is already a uniform xs:integer
		// payload vector (columns are immutable once produced)
		v = ItemVec{Tag: xqt.KInt, n: len(src.Int), I: src.Int}
	case KBool:
		v = ItemVec{Tag: xqt.KBool, n: len(src.Bool), I: make([]int64, len(src.Bool))}
		for i, b := range src.Bool {
			if b {
				v.I[i] = 1
			}
		}
	default:
		v = src.Item
	}
	out := &Table{N: in.N, names: append([]string(nil), in.names...), cols: append([]Col(nil), in.cols...)}
	out.names = append(out.names, n.Dst)
	out.cols = append(out.cols, Col{Kind: KItem, Item: v})
	return out
}

func (e *Exec) execRangeGen(n *RangeGen, in *Table) (*Table, error) {
	iters := in.Ints(n.Iter)
	lo := in.ItemVec(n.Lo)
	hi := in.ItemVec(n.Hi)
	out := NewTable([]string{"iter", "pos", "item"}, []ColKind{KInt, KInt, KItem})
	ic, pc, tc := out.Col("iter"), out.Col("pos"), out.Col("item")
	sinceCheck := 0
	for i := range iters {
		a := int64(lo.At(i).AsDouble())
		b := int64(hi.At(i).AsDouble())
		if b-a > MaxRows {
			return nil, xqerr.Newf(xqerr.CodeResourceLimit,
				"range %d to %d exceeds the %d-row limit", a, b, MaxRows)
		}
		if b < a {
			continue
		}
		// 24 B/row: the iter, pos and item int64 columns
		sinceCheck += int(b-a) + 1
		if sinceCheck >= 1<<16 {
			e.charge(int64(sinceCheck) * 24)
			sinceCheck = 0
			if e.stopRequested() {
				return nil, e.stopErr()
			}
		}
		base := tc.Item.growRows(xqt.KInt, int(b-a)+1)
		pos := int64(1)
		for v := a; v <= b; v++ {
			ic.Int = append(ic.Int, iters[i])
			pc.Int = append(pc.Int, pos)
			tc.Item.I[base] = v
			base++
			pos++
		}
	}
	e.charge(int64(sinceCheck) * 24)
	out.N = ic.Len()
	return out, nil
}

// cancelcheck:exempt two memory-bound integer-column scans
// alloccheck:exempt transient membership scratch bounded by the charged
// input column, freed at return; the output is the input, zero-copy
func execCoverCheck(n *CoverCheck, loop, in *Table) (*Table, error) {
	have := make(map[int64]bool, in.N)
	for _, it := range in.Ints(n.Part) {
		have[it] = true
	}
	for _, it := range loop.Ints(n.LoopIter) {
		if !have[it] {
			return nil, xqerr.Newf("FORG0005", "%s applied to an empty sequence", n.Fn)
		}
	}
	return in, nil
}

func (e *Exec) execDocRoot(n *DocRoot) (*Table, error) {
	c, ok := e.Pool.ByName(n.Doc)
	if !ok {
		return nil, xqerr.Newf("FODC0002", "document %q not loaded", n.Doc)
	}
	t := NewTable([]string{"pos", "item"}, []ColKind{KInt, KItem})
	t.N = 1
	t.Col("pos").Int = []int64{1}
	t.Col("item").Item = ItemsOf(xqt.Node(c.ID, 0))
	return t, nil
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
	t := NewTable([]string{"pos", "item"}, []ColKind{KInt, KItem})
	t.N = 1
	t.Col("pos").Int = []int64{1}
	t.Col("item").Item = ItemsOf(xqt.Node(c.ID, 0))
	return t, nil
}

// execParam materializes one external variable binding as its (pos,
// item) table. The item vector is shared with the binding environment
// (vectors are immutable once built), so binding N values costs O(N)
// pos integers and nothing else.
// cancelcheck:exempt fills one dense pos column, memory-bound
func (e *Exec) execParam(n *ParamTable) (*Table, error) {
	v, ok := e.Bindings[n.Var]
	if !ok {
		return nil, xqerr.Newf("XPDY0002", "no value bound for external variable $%s", n.Var)
	}
	t := NewTable([]string{"pos", "item"}, []ColKind{KInt, KItem})
	t.N = v.Len()
	e.charge(8 * int64(v.Len())) // the pos column; the item vector is the caller's binding
	pc := t.Col("pos")
	pc.Int = make([]int64, v.Len())
	for i := range pc.Int {
		pc.Int[i] = int64(i) + 1
	}
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
	pc.Int = make([]int64, len(conts))
	tc := t.Col("item")
	tc.Item.growRows(xqt.KNode, len(conts))
	for i := range conts {
		pc.Int[i] = int64(i) + 1
		tc.Item.Cont[i] = conts[i]
		tc.Item.I[i] = int64(pres[i])
	}
	e.chargeTable(t)
	return t, nil
}

// cancelcheck:exempt per-column header remap, no per-row work
// alloccheck:exempt zero-copy: O(columns) header slices, no row payloads
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

// cancelcheck:exempt memory-bound constant-column fill
// alloccheck:exempt no Exec receiver; the apply dispatch charges the
// attached column
func execAttach(n *Attach, in *Table) *Table {
	out := &Table{N: in.N, names: append([]string(nil), in.names...), cols: append([]Col(nil), in.cols...)}
	c := Col{Kind: n.Kind}
	switch n.Kind {
	case KInt:
		c.Int = make([]int64, in.N)
		for i := range c.Int {
			c.Int[i] = n.I
		}
	case KBool:
		c.Bool = make([]bool, in.N)
		for i := range c.Bool {
			c.Bool[i] = n.B
		}
	default:
		c.Item = constItemVec(n.It, in.N)
	}
	out.names = append(out.names, n.Col)
	out.cols = append(out.cols, c)
	return out
}

func (e *Exec) execSelect(n *Select, in *Table) *Table {
	cond := in.Bools(n.Cond)
	if !e.Par.on(in.N) {
		idx := make([]int32, 0, in.N/2)
		for i, b := range cond {
			if i&8191 == 8191 && e.stopRequested() {
				break // Run's post-operator checkpoint discards the partial table
			}
			if b != n.Neg {
				idx = append(idx, int32(i))
			}
		}
		out := in.Gather(idx)
		e.chargeTable(out)
		return out
	}
	rs := splitRows(in.N, e.Par.Workers)
	parts := make([][]int32, len(rs))
	e.Par.parRun(len(rs), func(k int) {
		local := make([]int32, 0, (rs[k][1]-rs[k][0])/2+1)
		for i := rs[k][0]; i < rs[k][1]; i++ {
			if cond[i] != n.Neg {
				local = append(local, int32(i))
			}
		}
		parts[k] = local
	})
	total := 0
	for _, p := range parts {
		total += len(p)
	}
	idx := make([]int32, 0, total)
	for _, p := range parts {
		idx = append(idx, p...)
	}
	out := e.gather(in, idx)
	e.chargeTable(out)
	return out
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

// rankRuns numbers rows 1.. per contiguous part run, on group-aligned
// chunks in parallel when the input is large.
func (e *Exec) rankRuns(part, rank []int64) {
	if !e.Par.on(len(part)) {
		seqRank(part, rank, 0, len(part))
		return
	}
	rs := splitRuns(len(part), e.Par.Workers, func(i int) bool { return part[i] != part[i-1] })
	e.Par.parRun(len(rs), func(k int) { seqRank(part, rank, rs[k][0], rs[k][1]) })
}

func (e *Exec) execRowNum(n *RowNum, in *Table) *Table {
	e.charge(8 * int64(in.N)) // the rank column
	rank := make([]int64, in.N)
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
	switch {
	case part == nil && idx == nil:
		e.parFill(in.N, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				rank[i] = int64(i) + 1
			}
		})
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
		// numbering, which partitions at group boundaries
		e.rankRuns(part, rank)
	default:
		// hash-based numbering in arrival order per group (§4.1): valid
		// under grpord(OrderBy, Part). Group ids of a narrow range count
		// in a slice; the map is the last resort
		lo, hi := slices.Min(part), slices.Max(part)
		var ctr []int64
		var ctrMap map[int64]int64
		if span := uint64(hi - lo); span <= 4*uint64(in.N) {
			e.charge(8 * int64(span+1))
			ctr = make([]int64, span+1)
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
				ctrMap[p]++
				rank[i] = ctrMap[p]
			}
		}
	}
	out := &Table{N: in.N, names: append([]string(nil), in.names...), cols: append([]Col(nil), in.cols...)}
	out.names = append(out.names, n.Out)
	out.cols = append(out.cols, Col{Kind: KInt, Int: rank})
	return out
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
	out := in.Gather(idx)
	e.chargeTable(out)
	return out
}

func (e *Exec) execHashJoin(n *HashJoin, l, r *Table) (*Table, error) {
	lkey := l.Ints(n.LKey)
	rkey := r.Ints(n.RKey)
	var lidx, ridx []int32
	if n.Pos && r.N > 0 {
		e.Stats.PosJoins++
		base := rkey[0]
		lidx, ridx = e.parPairs(l.N, func(lo, hi int) ([]int32, []int32) {
			var li, ri []int32
			for i := lo; i < hi; i++ {
				if (i-lo)&8191 == 8191 && e.stopRequested() {
					break
				}
				j := lkey[i] - base
				if j >= 0 && j < int64(r.N) {
					li = append(li, int32(i))
					ri = append(ri, int32(j))
				}
			}
			return li, ri
		})
	} else if n.PosLeft && l.N > 0 {
		e.Stats.PosJoins++
		base := lkey[0]
		lidx, ridx = e.parPairs(r.N, func(lo, hi int) ([]int32, []int32) {
			var li, ri []int32
			for j := lo; j < hi; j++ {
				if (j-lo)&8191 == 8191 && e.stopRequested() {
					break
				}
				i := rkey[j] - base
				if i >= 0 && i < int64(l.N) {
					li = append(li, int32(i))
					ri = append(ri, int32(j))
				}
			}
			return li, ri
		})
	} else {
		e.Stats.HashJoins++
		ht := e.buildHashTable(rkey)
		lidx, ridx = e.parPairs(l.N, func(lo, hi int) ([]int32, []int32) {
			var li, ri []int32
			charged := 0
			for i := lo; i < hi; i++ {
				if (i-lo)&4095 == 4095 {
					// probe output can explode on skewed keys: charge the
					// pairs as they accumulate, not just the final table
					e.charge(8 * int64(len(li)-charged))
					charged = len(li)
					if e.stopRequested() {
						break
					}
				}
				for _, j := range ht.lookup(lkey[i]) {
					li = append(li, int32(i))
					ri = append(ri, j)
				}
			}
			e.charge(8 * int64(len(li)-charged))
			return li, ri
		})
	}
	return e.joinGather(l, r, n.LCols, n.RCols, lidx, ridx)
}

func (e *Exec) joinGather(l, r *Table, lcols, rcols []ColRef, lidx, ridx []int32) (*Table, error) {
	out := &Table{N: len(lidx)}
	ncols := len(lcols) + len(rcols)
	out.names = make([]string, 0, ncols)
	out.cols = make([]Col, ncols)
	for _, ref := range lcols {
		out.names = append(out.names, ref.Dst)
	}
	for _, ref := range rcols {
		out.names = append(out.names, ref.Dst)
	}
	fill := func(i int) {
		if i < len(lcols) {
			out.cols[i] = l.Col(lcols[i].Src).Gather(lidx)
		} else {
			out.cols[i] = r.Col(rcols[i-len(lcols)].Src).Gather(ridx)
		}
	}
	if e.Par.on(len(lidx)) && ncols > 1 {
		e.Par.parRun(ncols, fill)
	} else {
		for i := 0; i < ncols; i++ {
			fill(i)
		}
	}
	e.chargeTable(out)
	return out, nil
}

func (e *Exec) execCross(n *Cross, l, r *Table) (*Table, error) {
	total := int64(l.N) * int64(r.N)
	if total > MaxRows {
		return nil, xqerr.Newf(xqerr.CodeResourceLimit,
			"Cartesian product of %d x %d rows exceeds the %d-row limit", l.N, r.N, MaxRows)
	}
	// the full pair-index size is known up front: charge before allocating
	if !e.charge(8 * total) {
		return nil, e.Mem.Err()
	}
	e.Stats.CrossRows += total
	lidx := make([]int32, 0, total)
	ridx := make([]int32, 0, total)
	for i := 0; i < l.N; i++ {
		if i&255 == 255 && e.stopRequested() {
			return nil, e.stopErr()
		}
		for j := 0; j < r.N; j++ {
			lidx = append(lidx, int32(i))
			ridx = append(ridx, int32(j))
		}
	}
	return e.joinGather(l, r, n.LCols, n.RCols, lidx, ridx)
}

// cancelcheck:exempt memory-bound column concatenation
// alloccheck:exempt no Exec receiver; the apply dispatch charges the result
func execUnion(in []*Table) *Table {
	first := in[0]
	out := &Table{}
	for _, name := range first.names {
		kind := first.Col(name).Kind
		c := Col{Kind: kind}
		for _, t := range in {
			src := t.Col(name)
			switch kind {
			case KInt:
				c.Int = append(c.Int, src.Int...)
			case KBool:
				c.Bool = append(c.Bool, src.Bool...)
			default:
				c.Item.AppendVec(&src.Item)
			}
		}
		out.names = append(out.names, name)
		out.cols = append(out.cols, c)
	}
	if len(out.cols) > 0 {
		out.N = out.cols[0].Len()
	}
	return out
}

func (e *Exec) execDiff(n *Diff, l, r *Table) *Table {
	e.charge(16 * int64(r.N)) // the key set, sized up front
	rset := make(map[int64]bool, r.N)
	for i, k := range r.Ints(n.RKey) {
		if i&8191 == 8191 && e.stopRequested() {
			break // Run's post-operator checkpoint discards the partial table
		}
		rset[k] = true
	}
	var idx []int32
	for i, k := range l.Ints(n.LKey) {
		if i&8191 == 8191 && e.stopRequested() {
			break
		}
		if !rset[k] {
			idx = append(idx, int32(i))
		}
	}
	out := l.Gather(idx)
	e.chargeTable(out)
	return out
}

func (e *Exec) execDistinct(n *Distinct, in *Table) *Table {
	cols := make([]*Col, len(n.By))
	for i, name := range n.By {
		cols[i] = in.Col(name)
	}
	var idx []int32
	if n.Merge {
		for i := 0; i < in.N; i++ {
			if i&8191 == 8191 && e.stopRequested() {
				break // Run's post-operator checkpoint discards the partial table
			}
			if i == 0 || compareRows(cols, int32(i-1), int32(i)) != 0 {
				idx = append(idx, int32(i))
			}
		}
	} else {
		encs := make([]keyEnc, len(cols))
		for i, c := range cols {
			encs[i] = colKeyEnc(c)
		}
		e.charge(24 * int64(in.N)) // the dedup set, sized up front
		seen := make(map[string]bool, in.N)
		var key []byte
		for i := 0; i < in.N; i++ {
			if i&4095 == 4095 && e.stopRequested() {
				break
			}
			key = key[:0]
			for _, enc := range encs {
				key = enc(key, int32(i))
				key = append(key, 0xff)
			}
			if !seen[string(key)] {
				seen[string(key)] = true
				idx = append(idx, int32(i))
			}
		}
	}
	out := in.Gather(idx)
	e.chargeTable(out)
	return out
}

// keyEnc appends the hashable encoding of one column's row i to buf.
type keyEnc func(buf []byte, i int32) []byte

// itemKey appends the per-kind value encoding used for duplicate
// elimination: numeric values (integers and doubles) encode as their
// xs:double bit pattern so 1 and 1.0 collapse into one value; booleans,
// strings and node identities each keep their own tag, so values the eq
// operator cannot compare (1 versus true()) stay distinct, per the
// fn:distinct-values rules.
func itemKey(buf []byte, v *ItemVec, k xqt.Kind, i int32) []byte {
	switch k {
	case xqt.KNode, xqt.KAttr:
		buf = append(buf, byte(k))
		buf = appendInt(buf, int64(v.Cont[i]))
		return appendInt(buf, v.I[i])
	case xqt.KInt:
		buf = append(buf, 'n')
		return appendInt(buf, int64(math.Float64bits(float64(v.I[i]))))
	case xqt.KBool:
		buf = append(buf, 'b')
		return append(buf, byte(v.I[i]&1))
	case xqt.KDouble:
		buf = append(buf, 'n')
		return appendInt(buf, int64(math.Float64bits(v.F[i])))
	default:
		buf = append(buf, 's')
		return append(buf, v.S[i]...)
	}
}

// colKeyEnc builds the key encoder of one column, dispatching on the
// column kind — and, for uniform item columns, on the item kind — once
// instead of per row.
func colKeyEnc(c *Col) keyEnc {
	switch c.Kind {
	case KInt:
		return func(buf []byte, i int32) []byte { return appendInt(buf, c.Int[i]) }
	case KBool:
		return func(buf []byte, i int32) []byte {
			if c.Bool[i] {
				return append(buf, 1)
			}
			return append(buf, 0)
		}
	}
	v := &c.Item
	if k, ok := v.Uniform(); ok {
		return func(buf []byte, i int32) []byte { return itemKey(buf, v, k, i) }
	}
	return func(buf []byte, i int32) []byte { return itemKey(buf, v, v.Tags[i], i) }
}

func appendInt(buf []byte, v int64) []byte {
	for s := 56; s >= 0; s -= 8 {
		buf = append(buf, byte(v>>uint(s)))
	}
	return buf
}

func (e *Exec) execAggr(n *Aggr, in *Table) (*Table, error) {
	part := in.Ints(n.Part)
	var arg *ItemVec
	if n.Op != AggCount {
		arg = in.ItemVec(n.Arg)
	}
	if e.Par.on(in.N) && int64sNonDecreasing(part) {
		// clustered groups: chunk at group boundaries so every group is
		// accumulated by one worker in serial order (this keeps
		// floating-point sums bit-identical to serial execution)
		rs := splitRuns(in.N, e.Par.Workers, func(i int) bool { return part[i] != part[i-1] })
		pcs := make([][]int64, len(rs))
		vcs := make([][]xqt.Item, len(rs))
		stop := e.stopFunc()
		e.Par.parRun(len(rs), func(k int) {
			pcs[k], vcs[k] = aggrRange(n, part, arg, rs[k][0], rs[k][1], stop)
		})
		out := NewTable([]string{n.Part, n.Out}, []ColKind{KInt, KItem})
		for k := range pcs {
			out.Col(n.Part).Int = append(out.Col(n.Part).Int, pcs[k]...)
			for _, it := range vcs[k] {
				out.Col(n.Out).Item.Append(it)
			}
		}
		out.N = out.Col(n.Part).Len()
		e.chargeTable(out)
		return out, nil
	}
	pc, vc := aggrRange(n, part, arg, 0, in.N, e.stopFunc())
	out := NewTable([]string{n.Part, n.Out}, []ColKind{KInt, KItem})
	out.N = len(pc)
	out.Col(n.Part).Int = pc
	out.Col(n.Out).Item = NewItemVec(vc)
	e.chargeTable(out)
	return out, nil
}

// aggGroup accumulates one group's aggregate state.
type aggGroup struct {
	cnt    int64
	sumF   float64
	sumI   int64
	allInt bool
	minmax xqt.Item
}

// aggrRange aggregates rows [lo, hi) by part, returning one (part, value)
// row per group in first-appearance order. When the argument column has a
// uniform numeric tag, the accumulation loops run over the raw
// int64/float64 payload vectors — one kind dispatch per chunk instead of
// one per row (the accumulation order, and therefore every
// floating-point result bit, is unchanged). A non-nil stop is polled
// every few thousand rows; when it fires the partial result is returned
// (the caller's Run discards it and surfaces the context error).
func aggrRange(n *Aggr, part []int64, arg *ItemVec, lo, hi int, stop func() bool) ([]int64, []xqt.Item) {
	order := make([]int64, 0, 64)
	groups := make(map[int64]*aggGroup, 64)
	lookup := func(p int64) *aggGroup {
		g := groups[p]
		if g == nil {
			g = &aggGroup{allInt: true}
			groups[p] = g
			order = append(order, p)
		}
		g.cnt++
		return g
	}
	tag := xqt.KUntyped
	uniform := false
	if arg != nil {
		tag, uniform = arg.Uniform()
	}
	switch {
	case n.Op == AggCount:
		for i := lo; i < hi; i++ {
			if (i-lo)&8191 == 8191 && stop != nil && stop() {
				return nil, nil
			}
			lookup(part[i])
		}
	case uniform && tag == xqt.KInt && (n.Op == AggSum || n.Op == AggAvg):
		for i := lo; i < hi; i++ {
			if (i-lo)&8191 == 8191 && stop != nil && stop() {
				return nil, nil
			}
			g := lookup(part[i])
			g.sumI += arg.I[i]
			g.sumF += float64(arg.I[i])
		}
	case uniform && tag == xqt.KDouble && (n.Op == AggSum || n.Op == AggAvg):
		for i := lo; i < hi; i++ {
			if (i-lo)&8191 == 8191 && stop != nil && stop() {
				return nil, nil
			}
			g := lookup(part[i])
			g.allInt = false
			g.sumF += arg.F[i]
		}
	case uniform && tag == xqt.KInt && (n.Op == AggMin || n.Op == AggMax):
		// ties keep the earlier row, and the comparison is the xs:double
		// order xqt.SortLess applies to numeric items
		max := n.Op == AggMax
		for i := lo; i < hi; i++ {
			if (i-lo)&8191 == 8191 && stop != nil && stop() {
				return nil, nil
			}
			g := lookup(part[i])
			v := arg.I[i]
			if g.cnt == 1 ||
				(max && float64(g.minmax.I) < float64(v)) ||
				(!max && float64(v) < float64(g.minmax.I)) {
				g.minmax = xqt.Int(v)
			}
		}
	case uniform && tag == xqt.KDouble && (n.Op == AggMin || n.Op == AggMax):
		max := n.Op == AggMax
		for i := lo; i < hi; i++ {
			if (i-lo)&8191 == 8191 && stop != nil && stop() {
				return nil, nil
			}
			g := lookup(part[i])
			v := arg.F[i]
			if g.cnt == 1 || (max && g.minmax.F < v) || (!max && v < g.minmax.F) {
				g.minmax = xqt.Double(v)
			}
		}
	default:
		for i := lo; i < hi; i++ {
			if (i-lo)&8191 == 8191 && stop != nil && stop() {
				return nil, nil
			}
			g := lookup(part[i])
			switch n.Op {
			case AggSum, AggAvg:
				it := arg.At(i)
				if it.K == xqt.KInt {
					g.sumI += it.I
				} else {
					g.allInt = false
				}
				g.sumF += it.AsDouble()
			case AggMin:
				if g.cnt == 1 || xqt.SortLess(arg.At(i), g.minmax) {
					g.minmax = arg.At(i)
				}
			case AggMax:
				if g.cnt == 1 || xqt.SortLess(g.minmax, arg.At(i)) {
					g.minmax = arg.At(i)
				}
			}
		}
	}
	pc := make([]int64, len(order))
	vc := make([]xqt.Item, len(order))
	for i, p := range order {
		g := groups[p]
		pc[i] = p
		switch n.Op {
		case AggCount:
			vc[i] = xqt.Int(g.cnt)
		case AggSum:
			if g.allInt {
				vc[i] = xqt.Int(g.sumI)
			} else {
				vc[i] = xqt.Double(g.sumF)
			}
		case AggAvg:
			vc[i] = xqt.Double(g.sumF / float64(g.cnt))
		case AggMin, AggMax:
			vc[i] = g.minmax
		}
	}
	return pc, vc
}

// stepInputSorted verifies the (item, iter) sort contract of Step inputs.
func stepInputSorted(items *ItemVec, iters []int64) bool {
	if k, ok := items.Uniform(); ok && (k == xqt.KNode || k == xqt.KAttr) {
		// uniform node column: document order is (container, pre) order
		// directly on the payload vectors
		for i := 1; i < items.Len(); i++ {
			switch {
			case items.Cont[i-1] != items.Cont[i]:
				if items.Cont[i-1] > items.Cont[i] {
					return false
				}
			case items.I[i-1] != items.I[i]:
				if items.I[i-1] > items.I[i] {
					return false
				}
			case iters[i-1] > iters[i]:
				return false
			}
		}
		return true
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

// stepSegRun evaluates one segment with a worker budget: budget <= 1
// runs the serial step algorithm, larger budgets hand the segment to
// ParallelStep (which still falls back to serial below the threshold).
func (e *Exec) stepSegRun(n *Step, iters []int64, items *ItemVec, s stepSeg, budget int, st *scj.Stats) scj.Pairs {
	if s.attrRow {
		var out scj.Pairs
		c := e.Pool.Get(s.cont)
		owner := c.AttrOwner[items.I[s.lo]]
		if scj.CompileTest(c, n.Test)(owner) {
			out.Pre = []int32{owner}
			out.Iter = []int32{int32(iters[s.lo])}
		}
		return out
	}
	// the context relation is emitted as columns straight off the typed
	// payload vectors
	ctx := scj.FromColumns(items.I, iters, s.lo, s.hi)
	c := e.Pool.Get(s.cont)
	if budget > 1 {
		return scj.ParallelStepSlots(e.Par.Slots, c, ctx, n.Axis, n.Test, n.Variant, budget, e.Par.Threshold, st)
	}
	return scj.Step(c, ctx, n.Axis, n.Test, n.Variant, st)
}

func (e *Exec) execStep(n *Step, in *Table) (*Table, error) {
	iters := in.Ints(n.IterCol)
	items := in.ItemVec(n.ItemCol)
	if !stepInputSorted(items, iters) {
		return nil, fmt.Errorf("ralg: step(%v) input not sorted on (item, iter): plan misses a sort", n.Axis)
	}
	segs := stepSegments(items, n.Axis)
	results := make([]scj.Pairs, len(segs))
	if e.Par.Workers > 1 && len(segs) > 1 {
		// cross-shard parallelism: each container run is one task on the
		// worker pool, and the worker budget is split across segments in
		// proportion to their containers' sizes, so a dominant segment
		// (one huge document next to small shards) keeps its
		// intra-container range/context partitioning. Context rows are
		// not the weight because one root row can cover a whole document.
		// Per-segment stats are summed afterwards; concatenating segment
		// outputs in segment order reproduces the serial emission order
		// exactly.
		weights := make([]int64, len(segs))
		var total int64
		for k, s := range segs {
			w := int64(1)
			if !s.attrRow {
				if l := int64(e.Pool.Get(s.cont).Len()); l > 1 {
					w = l
				}
			}
			weights[k] = w
			total += w
		}
		stats := make([]scj.Stats, len(segs))
		stop := e.stopFunc()
		charge := e.chargeFunc()
		e.Par.parRun(len(segs), func(k int) {
			stats[k].Stop = stop
			stats[k].Charge = charge
			budget := int(int64(e.Par.Workers) * weights[k] / total)
			results[k] = e.stepSegRun(n, iters, items, segs[k], budget, &stats[k])
		})
		for k := range stats {
			e.Stats.Step.Touched += stats[k].Touched
			e.Stats.Step.Emitted += stats[k].Emitted
			e.Stats.Step.Pruned += stats[k].Pruned
		}
	} else {
		stop := e.stopFunc()
		e.Stats.Step.Stop = stop
		e.Stats.Step.Charge = e.chargeFunc()
		for k, s := range segs {
			if stop != nil && stop() {
				break
			}
			results[k] = e.stepSegRun(n, iters, items, s, e.Par.Workers, &e.Stats.Step)
		}
		e.Stats.Step.Stop = nil
		e.Stats.Step.Charge = nil
	}
	out := NewTable([]string{"iter", "item"}, []ColKind{KInt, KItem})
	total := 0
	for _, r := range results {
		total += r.Len()
	}
	// 20 B/row: the iter int64 plus the node column's cont/pre vectors;
	// the size is known before allocating, so an over-budget step fails
	// without materializing the output
	if !e.charge(20 * int64(total)) {
		return nil, e.Mem.Err()
	}
	ic := out.Col("iter")
	tc := out.Col("item")
	ic.Int = make([]int64, total)
	tc.Item.growRows(xqt.KNode, total)
	base := 0
	for k, res := range results {
		cont := segs[k].cont
		b := base
		e.parFill(res.Len(), func(lo, hi int) {
			for r := lo; r < hi; r++ {
				ic.Int[b+r] = int64(res.Iter[r])
				tc.Item.Cont[b+r] = cont
				tc.Item.I[b+r] = int64(res.Pre[r])
			}
		})
		base += res.Len()
	}
	out.N = total
	return out, nil
}

func (e *Exec) execAttrStep(n *AttrStep, in *Table) (*Table, error) {
	iters := in.Ints(n.IterCol)
	items := in.ItemVec(n.ItemCol)
	if !stepInputSorted(items, iters) {
		return nil, fmt.Errorf("ralg: attribute step input not sorted on (item, iter)")
	}
	// newRunAt is the splitRuns boundary predicate: row i starts a new
	// run of identical context items
	newRunAt := func(i int) bool { return items.At(i) != items.At(i-1) }
	if k, ok := items.Uniform(); ok && (k == xqt.KNode || k == xqt.KAttr) {
		newRunAt = func(i int) bool {
			return items.Cont[i] != items.Cont[i-1] || items.I[i] != items.I[i-1]
		}
	}
	out := NewTable([]string{"iter", "item"}, []ColKind{KInt, KItem})
	if e.Par.on(in.N) {
		// chunk at identical-item run boundaries: each run is resolved by
		// one worker, so concatenating chunk outputs reproduces the
		// serial (attribute, iter) order
		rs := splitRuns(in.N, e.Par.Workers, newRunAt)
		ics := make([][]int64, len(rs))
		tcs := make([]ItemVec, len(rs))
		e.Par.parRun(len(rs), func(k int) {
			ics[k], tcs[k] = e.attrStepRange(n, iters, items, rs[k][0], rs[k][1])
		})
		for k := range ics {
			out.Col("iter").Int = append(out.Col("iter").Int, ics[k]...)
			out.Col("item").Item.AppendVec(&tcs[k])
		}
	} else {
		ic, tc := e.attrStepRange(n, iters, items, 0, in.N)
		out.Col("iter").Int = ic
		out.Col("item").Item = tc
	}
	out.N = out.Col("iter").Len()
	e.chargeTable(out)
	return out, nil
}

// attrStepRange resolves the attribute axis for input rows [lo, hi); lo
// must start a run of identical context items.
func (e *Exec) attrStepRange(n *AttrStep, iters []int64, items *ItemVec, lo, hi int) ([]int64, ItemVec) {
	var ic []int64
	var tc ItemVec
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
					ic = append(ic, iters[k])
					tc.Append(xqt.Attr(ac.ID, a))
				}
			}
		}
		i = j
	}
	return ic, tc
}

func (e *Exec) execEBV(n *EBV, in *Table) (*Table, error) {
	part := in.Ints(n.Part)
	items := in.ItemVec(n.Item)
	out := NewTable([]string{n.Part, n.Out}, []ColKind{KInt, KBool})
	pc := out.Col(n.Part)
	bc := out.Col(n.Out)
	i := 0
	groups := 0
	for i < len(part) {
		groups++
		if groups&8191 == 8191 && e.stopRequested() {
			break // Run's post-operator checkpoint discards the partial table
		}
		j := i
		for j < len(part) && part[j] == part[i] {
			j++
		}
		v, err := ebvGroup(items, i, j)
		if err != nil {
			return nil, err
		}
		pc.Int = append(pc.Int, part[i])
		bc.Bool = append(bc.Bool, v)
		i = j
	}
	out.N = pc.Len()
	e.chargeTable(out)
	return out, nil
}

// ebvGroup computes the effective boolean value of rows [lo, hi) of one
// iteration group.
func ebvGroup(items *ItemVec, lo, hi int) (bool, error) {
	if k := items.KindAt(lo); k == xqt.KNode || k == xqt.KAttr {
		return true, nil
	}
	if hi-lo > 1 {
		return false, xqerr.Newf("FORG0006", "effective boolean value of a sequence of %d atomic values", hi-lo)
	}
	return ebvAtom(items.At(lo)), nil
}

func ebvAtom(it xqt.Item) bool {
	switch it.K {
	case xqt.KBool:
		return it.I != 0
	case xqt.KInt:
		return it.I != 0
	case xqt.KDouble:
		return it.F != 0 && !math.IsNaN(it.F)
	case xqt.KString, xqt.KUntyped:
		return it.S != ""
	}
	return true
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

func (e *Exec) atomize(it xqt.Item) xqt.Item {
	switch it.K {
	case xqt.KNode:
		c := e.Pool.Get(it.Cont)
		return xqt.Untyped(c.StringValue(int32(it.I)))
	case xqt.KAttr:
		c := e.Pool.Get(it.Cont)
		return xqt.Untyped(c.AttrVal[it.I])
	}
	return it
}

// vecView is a uniformly tagged columnar view of an argument column:
// integer and boolean table columns view as xs:integer/xs:boolean
// payload vectors, uniform atom columns expose their payloads directly,
// and uniform node columns are atomized in bulk through the container's
// string-value kernels (becoming xs:untypedAtomic, as row-wise
// atomization would). Mixed-tag columns have no view; the per-row
// fallback paths handle them.
type vecView struct {
	tag xqt.Kind
	i   []int64
	f   []float64
	s   []string
}

func (v vecView) numeric() bool { return v.tag == xqt.KInt || v.tag == xqt.KDouble }

// view resolves a column to its uniform typed view.
func (e *Exec) view(c *Col) (vecView, bool) {
	switch c.Kind {
	case KInt:
		return vecView{tag: xqt.KInt, i: c.Int}, true
	case KBool:
		iv := make([]int64, len(c.Bool))
		for j, b := range c.Bool {
			if b {
				iv[j] = 1
			}
		}
		return vecView{tag: xqt.KBool, i: iv}, true
	}
	vec := &c.Item
	k, ok := vec.Uniform()
	if !ok {
		return vecView{}, false
	}
	switch k {
	case xqt.KInt, xqt.KBool:
		return vecView{tag: k, i: vec.I}, true
	case xqt.KDouble:
		return vecView{tag: k, f: vec.F}, true
	case xqt.KString, xqt.KUntyped:
		return vecView{tag: k, s: vec.S}, true
	}
	return vecView{tag: xqt.KUntyped, s: e.atomizeNodes(k, vec)}, true
}

// atomizeNodes computes the string values of a uniform node column,
// batching per container run (the container lookup is hoisted out of the
// row loop into the store's bulk kernels).
func (e *Exec) atomizeNodes(k xqt.Kind, vec *ItemVec) []string {
	out := make([]string, vec.Len())
	i := 0
	for i < vec.Len() {
		cont := vec.Cont[i]
		j := i
		for j < vec.Len() && vec.Cont[j] == cont {
			j++
		}
		c := e.Pool.Get(cont)
		if k == xqt.KNode {
			c.StringValues(vec.I[i:j], out[i:j])
		} else {
			c.AttrValues(vec.I[i:j], out[i:j])
		}
		i = j
	}
	return out
}

// floats materializes the view as xs:double values (the AsDouble cast)
// in one conversion pass.
func (v vecView) floats(n int) []float64 {
	switch v.tag {
	case xqt.KDouble:
		return v.f
	case xqt.KInt, xqt.KBool:
		out := make([]float64, n)
		for i, x := range v.i {
			out[i] = float64(x)
		}
		return out
	default:
		out := make([]float64, n)
		for i, s := range v.s {
			out[i] = xqt.ParseDouble(s)
		}
		return out
	}
}

// strs materializes the view as xs:string values (the AsString cast).
func (v vecView) strs(n int) []string {
	switch v.tag {
	case xqt.KString, xqt.KUntyped:
		return v.s
	case xqt.KInt:
		out := make([]string, n)
		for i, x := range v.i {
			out[i] = strconv.FormatInt(x, 10)
		}
		return out
	case xqt.KBool:
		out := make([]string, n)
		for i, x := range v.i {
			if x != 0 {
				out[i] = "true"
			} else {
				out[i] = "false"
			}
		}
		return out
	default:
		out := make([]string, n)
		for i, x := range v.f {
			out[i] = xqt.FormatDouble(x)
		}
		return out
	}
}

// execFun evaluates row-wise functions. The typed-vector kernels of
// execFunVec cover columns with a uniform tag — one kind dispatch per
// column, tight loops over the raw payload vectors; mixed-tag columns
// fall back to the per-row polymorphic path below. Output columns fill
// through parFill, so large inputs are computed on row chunks in
// parallel (every row is independent; atomization only reads
// containers).
func (e *Exec) execFun(n *Fun, in *Table) (*Table, error) {
	// one output column of in.N rows, whatever the path below: charge a
	// flat estimate up front (bool outputs are 1 B/row, item outputs up
	// to ~40 B/row; 16 B is the mid estimate the bench validates)
	if !e.charge(16 * int64(in.N)) {
		return nil, e.Mem.Err()
	}
	out := &Table{N: in.N, names: append([]string(nil), in.names...), cols: append([]Col(nil), in.cols...)}
	switch n.Op {
	case FunAnd, FunOr:
		a, b := in.Bools(n.Args[0]), in.Bools(n.Args[1])
		c := make([]bool, in.N)
		e.parFill(in.N, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				if n.Op == FunAnd {
					c[i] = a[i] && b[i]
				} else {
					c[i] = a[i] || b[i]
				}
			}
		})
		out.AddCol(n.Out, Col{Kind: KBool, Bool: c})
		return out, nil
	case FunNot:
		a := in.Bools(n.Args[0])
		c := make([]bool, in.N)
		e.parFill(in.N, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				c[i] = !a[i]
			}
		})
		out.AddCol(n.Out, Col{Kind: KBool, Bool: c})
		return out, nil
	}
	if c, ok := e.execFunVec(n, in); ok {
		out.AddCol(n.Out, c)
		return out, nil
	}

	// per-row fallback for mixed-tag columns. getter views integer
	// columns as xs:integer items so comparisons work uniformly over
	// pos/count columns and item columns.
	getter := func(name string) func(int) xqt.Item {
		col := in.Col(name)
		switch col.Kind {
		case KInt:
			return func(i int) xqt.Item { return xqt.Int(col.Int[i]) }
		case KBool:
			return func(i int) xqt.Item { return xqt.Bool(col.Bool[i]) }
		default:
			vec := &col.Item
			return func(i int) xqt.Item { return vec.At(i) }
		}
	}
	switch n.Op {
	case FunEq, FunNe, FunLt, FunLe, FunGt, FunGe:
		op := cmpOpOf(n.Op)
		g0, g1 := getter(n.Args[0]), getter(n.Args[1])
		c := make([]bool, in.N)
		e.parFill(in.N, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				c[i] = xqt.Compare(e.atomize(g0(i)), e.atomize(g1(i)), op)
			}
		})
		out.AddCol(n.Out, Col{Kind: KBool, Bool: c})
		return out, nil
	}
	// the remaining fallback ops read whole item columns; materialize
	// them once (comparisons above only need the getter closures)
	args := make([][]xqt.Item, len(n.Args))
	for i, name := range n.Args {
		if in.Col(name).Kind == KItem {
			args[i] = in.Items(name)
		}
	}
	switch n.Op {
	case FunNodeBefore, FunNodeAfter, FunNodeIs:
		c := make([]bool, in.N)
		e.parFill(in.N, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				a, b := args[0][i], args[1][i]
				switch n.Op {
				case FunNodeIs:
					c[i] = a == b
				case FunNodeBefore:
					c[i] = xqt.DocOrderLess(a, b, e.Pool.AttrOwnerOf)
				default:
					c[i] = xqt.DocOrderLess(b, a, e.Pool.AttrOwnerOf)
				}
			}
		})
		out.AddCol(n.Out, Col{Kind: KBool, Bool: c})
		return out, nil
	case FunContains, FunStartsWith:
		c := make([]bool, in.N)
		e.parFill(in.N, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				a := e.atomize(args[0][i]).AsString()
				b := e.atomize(args[1][i]).AsString()
				if n.Op == FunContains {
					c[i] = strings.Contains(a, b)
				} else {
					c[i] = strings.HasPrefix(a, b)
				}
			}
		})
		out.AddCol(n.Out, Col{Kind: KBool, Bool: c})
		return out, nil
	case FunIsNumeric:
		c := make([]bool, in.N)
		e.parFill(in.N, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				c[i] = args[0][i].IsNumeric()
			}
		})
		out.AddCol(n.Out, Col{Kind: KBool, Bool: c})
		return out, nil
	case FunEbvAtom:
		c := make([]bool, in.N)
		e.parFill(in.N, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				it := args[0][i]
				if it.IsNode() {
					c[i] = true
				} else {
					c[i] = ebvAtom(it)
				}
			}
		})
		out.AddCol(n.Out, Col{Kind: KBool, Bool: c})
		return out, nil
	}

	switch n.Op {
	case FunAdd, FunSub, FunMul, FunDiv, FunIDiv, FunMod, FunNeg, FunAtomize,
		FunStringOf, FunNumber, FunConcat, FunNameOf, FunLocalName, FunFloor,
		FunCeil, FunRound, FunStrLen:
	default:
		return nil, fmt.Errorf("ralg: unhandled function op %d", n.Op)
	}
	c := make([]xqt.Item, in.N)
	e.parFill(in.N, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			switch n.Op {
			case FunAdd, FunSub, FunMul, FunDiv, FunIDiv, FunMod:
				c[i] = arith(n.Op, e.atomize(args[0][i]), e.atomize(args[1][i]))
			case FunNeg:
				a := e.atomize(args[0][i])
				if a.K == xqt.KInt {
					c[i] = xqt.Int(-a.I)
				} else {
					c[i] = xqt.Double(-a.AsDouble())
				}
			case FunAtomize:
				c[i] = e.atomize(args[0][i])
			case FunStringOf:
				c[i] = xqt.Str(e.atomize(args[0][i]).AsString())
			case FunNumber:
				c[i] = xqt.Double(e.atomize(args[0][i]).AsDouble())
			case FunConcat:
				c[i] = xqt.Str(e.atomize(args[0][i]).AsString() + e.atomize(args[1][i]).AsString())
			case FunNameOf:
				c[i] = xqt.Str(e.nameOf(args[0][i]))
			case FunLocalName:
				c[i] = xqt.Str(xqt.LocalName(e.nameOf(args[0][i])))
			case FunFloor:
				c[i] = xqt.Double(math.Floor(e.atomize(args[0][i]).AsDouble()))
			case FunCeil:
				c[i] = xqt.Double(math.Ceil(e.atomize(args[0][i]).AsDouble()))
			case FunRound:
				c[i] = xqt.Double(xqt.Round(e.atomize(args[0][i]).AsDouble()))
			case FunStrLen:
				c[i] = xqt.Int(int64(utf8.RuneCountInString(e.atomize(args[0][i]).AsString())))
			}
		}
	})
	out.AddCol(n.Out, Col{Kind: KItem, Item: NewItemVec(c)})
	return out, nil
}

func cmpOpOf(op FunOp) xqt.CmpOp {
	switch op {
	case FunEq:
		return xqt.CmpEq
	case FunNe:
		return xqt.CmpNe
	case FunLt:
		return xqt.CmpLt
	case FunLe:
		return xqt.CmpLe
	case FunGt:
		return xqt.CmpGt
	}
	return xqt.CmpGe
}

// uniformIntCol / uniformDoubleCol / uniformStringCol wrap a raw payload
// vector as a uniform item column.
func uniformIntCol(vs []int64) Col {
	return Col{Kind: KItem, Item: ItemVec{Tag: xqt.KInt, n: len(vs), I: vs}}
}

func uniformDoubleCol(vs []float64) Col {
	return Col{Kind: KItem, Item: ItemVec{Tag: xqt.KDouble, n: len(vs), F: vs}}
}

func uniformStringCol(tag xqt.Kind, vs []string) Col {
	return Col{Kind: KItem, Item: ItemVec{Tag: tag, n: len(vs), S: vs}}
}

// viewTag is the cheap pre-flight of view: the tag a column's view
// would have, without materializing payloads or atomizing node columns.
// Binary kernels probe both columns with it before paying for view.
func viewTag(c *Col) (xqt.Kind, bool) {
	switch c.Kind {
	case KInt:
		return xqt.KInt, true
	case KBool:
		return xqt.KBool, true
	}
	k, ok := c.Item.Uniform()
	if !ok {
		return xqt.KUntyped, false
	}
	if k == xqt.KNode || k == xqt.KAttr {
		return xqt.KUntyped, true
	}
	return k, true
}

// bothViewable reports whether both argument columns of n can take a
// typed kernel.
func bothViewable(n *Fun, in *Table) bool {
	_, oka := viewTag(in.Col(n.Args[0]))
	_, okb := viewTag(in.Col(n.Args[1]))
	return oka && okb
}

// execFunVec is the typed-vector fast path of execFun: when every
// argument column has a uniform tag, the operator dispatches on the tag
// combination once and runs a monomorphic kernel over the raw payload
// vectors. Returns ok=false when a column is mixed (or the op has no
// kernel); the caller then takes the per-row path, which computes the
// identical result.
//
// alloccheck:exempt the output column is covered by execFun's upfront
// per-row charge; this is only its typed fast path
func (e *Exec) execFunVec(n *Fun, in *Table) (Col, bool) {
	nr := in.N
	switch n.Op {
	case FunEq, FunNe, FunLt, FunLe, FunGt, FunGe:
		ta, oka := viewTag(in.Col(n.Args[0]))
		tb, okb := viewTag(in.Col(n.Args[1]))
		if !oka || !okb || (ta == xqt.KBool) != (tb == xqt.KBool) {
			// mixed column, or boolean against non-boolean (which
			// coerces per row): no kernel
			return Col{}, false
		}
		va, _ := e.view(in.Col(n.Args[0]))
		vb, _ := e.view(in.Col(n.Args[1]))
		op := cmpOpOf(n.Op)
		c := make([]bool, nr)
		switch {
		case va.tag == xqt.KBool && vb.tag == xqt.KBool:
			e.parFill(nr, func(lo, hi int) {
				for i := lo; i < hi; i++ {
					c[i] = xqt.CompareInt(va.i[i], vb.i[i], op)
				}
			})
		case va.tag == xqt.KInt && vb.tag == xqt.KInt:
			e.parFill(nr, func(lo, hi int) {
				for i := lo; i < hi; i++ {
					c[i] = xqt.CompareInt(va.i[i], vb.i[i], op)
				}
			})
		case va.numeric() || vb.numeric():
			fa, fb := va.floats(nr), vb.floats(nr)
			e.parFill(nr, func(lo, hi int) {
				for i := lo; i < hi; i++ {
					c[i] = xqt.CompareFloat(fa[i], fb[i], op)
				}
			})
		default:
			// string/untyped on both sides compares as strings
			e.parFill(nr, func(lo, hi int) {
				for i := lo; i < hi; i++ {
					c[i] = xqt.CompareString(va.s[i], vb.s[i], op)
				}
			})
		}
		return Col{Kind: KBool, Bool: c}, true

	case FunAdd, FunSub, FunMul, FunDiv, FunIDiv, FunMod:
		if !bothViewable(n, in) {
			return Col{}, false
		}
		va, _ := e.view(in.Col(n.Args[0]))
		vb, _ := e.view(in.Col(n.Args[1]))
		if va.tag == xqt.KInt && vb.tag == xqt.KInt && n.Op != FunDiv {
			if n.Op == FunIDiv || n.Op == FunMod {
				for _, y := range vb.i {
					if y == 0 {
						return Col{}, false // NaN rows: per-row path
					}
				}
			}
			c := make([]int64, nr)
			e.parFill(nr, func(lo, hi int) {
				for i := lo; i < hi; i++ {
					x, y := va.i[i], vb.i[i]
					switch n.Op {
					case FunAdd:
						c[i] = x + y
					case FunSub:
						c[i] = x - y
					case FunMul:
						c[i] = x * y
					case FunIDiv:
						c[i] = x / y
					default: // FunMod
						c[i] = x % y
					}
				}
			})
			return uniformIntCol(c), true
		}
		fa, fb := va.floats(nr), vb.floats(nr)
		if n.Op == FunIDiv {
			c := make([]int64, nr)
			e.parFill(nr, func(lo, hi int) {
				for i := lo; i < hi; i++ {
					c[i] = int64(fa[i] / fb[i])
				}
			})
			return uniformIntCol(c), true
		}
		c := make([]float64, nr)
		e.parFill(nr, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				x, y := fa[i], fb[i]
				switch n.Op {
				case FunAdd:
					c[i] = x + y
				case FunSub:
					c[i] = x - y
				case FunMul:
					c[i] = x * y
				case FunDiv:
					c[i] = x / y
				default: // FunMod
					c[i] = math.Mod(x, y)
				}
			}
		})
		return uniformDoubleCol(c), true

	case FunNeg:
		va, ok := e.view(in.Col(n.Args[0]))
		if !ok {
			return Col{}, false
		}
		if va.tag == xqt.KInt {
			c := make([]int64, nr)
			e.parFill(nr, func(lo, hi int) {
				for i := lo; i < hi; i++ {
					c[i] = -va.i[i]
				}
			})
			return uniformIntCol(c), true
		}
		fa := va.floats(nr)
		c := make([]float64, nr)
		e.parFill(nr, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				c[i] = -fa[i]
			}
		})
		return uniformDoubleCol(c), true

	case FunAtomize:
		col := in.Col(n.Args[0])
		if col.Kind != KItem {
			return Col{}, false
		}
		k, ok := col.Item.Uniform()
		if !ok {
			return Col{}, false
		}
		if k == xqt.KNode || k == xqt.KAttr {
			return uniformStringCol(xqt.KUntyped, e.atomizeNodes(k, &col.Item)), true
		}
		// atoms atomize to themselves: share the column
		return Col{Kind: KItem, Item: col.Item}, true

	case FunStringOf:
		va, ok := e.view(in.Col(n.Args[0]))
		if !ok {
			return Col{}, false
		}
		return uniformStringCol(xqt.KString, va.strs(nr)), true

	case FunNumber:
		va, ok := e.view(in.Col(n.Args[0]))
		if !ok {
			return Col{}, false
		}
		return uniformDoubleCol(va.floats(nr)), true

	case FunConcat:
		if !bothViewable(n, in) {
			return Col{}, false
		}
		va, _ := e.view(in.Col(n.Args[0]))
		vb, _ := e.view(in.Col(n.Args[1]))
		sa, sb := va.strs(nr), vb.strs(nr)
		c := make([]string, nr)
		e.parFill(nr, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				c[i] = sa[i] + sb[i]
			}
		})
		return uniformStringCol(xqt.KString, c), true

	case FunContains, FunStartsWith:
		if !bothViewable(n, in) {
			return Col{}, false
		}
		va, _ := e.view(in.Col(n.Args[0]))
		vb, _ := e.view(in.Col(n.Args[1]))
		sa, sb := va.strs(nr), vb.strs(nr)
		c := make([]bool, nr)
		e.parFill(nr, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				if n.Op == FunContains {
					c[i] = strings.Contains(sa[i], sb[i])
				} else {
					c[i] = strings.HasPrefix(sa[i], sb[i])
				}
			}
		})
		return Col{Kind: KBool, Bool: c}, true

	case FunFloor, FunCeil, FunRound:
		va, ok := e.view(in.Col(n.Args[0]))
		if !ok {
			return Col{}, false
		}
		fa := va.floats(nr)
		c := make([]float64, nr)
		e.parFill(nr, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				switch n.Op {
				case FunFloor:
					c[i] = math.Floor(fa[i])
				case FunCeil:
					c[i] = math.Ceil(fa[i])
				default:
					c[i] = xqt.Round(fa[i])
				}
			}
		})
		return uniformDoubleCol(c), true

	case FunStrLen:
		va, ok := e.view(in.Col(n.Args[0]))
		if !ok {
			return Col{}, false
		}
		sa := va.strs(nr)
		c := make([]int64, nr)
		e.parFill(nr, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				c[i] = int64(utf8.RuneCountInString(sa[i]))
			}
		})
		return uniformIntCol(c), true

	case FunNameOf, FunLocalName:
		col := in.Col(n.Args[0])
		if col.Kind != KItem {
			return Col{}, false
		}
		vec := &col.Item
		k, ok := vec.Uniform()
		if !ok || (k != xqt.KNode && k != xqt.KAttr) {
			return Col{}, false
		}
		c := make([]string, nr)
		i := 0
		for i < nr {
			cont := vec.Cont[i]
			j := i
			for j < nr && vec.Cont[j] == cont {
				j++
			}
			cc := e.Pool.Get(cont)
			if k == xqt.KNode {
				cc.NamesOf(vec.I[i:j], c[i:j])
			} else {
				cc.AttrNames(vec.I[i:j], c[i:j])
			}
			i = j
		}
		if n.Op == FunLocalName {
			for i := range c {
				c[i] = xqt.LocalName(c[i])
			}
		}
		return uniformStringCol(xqt.KString, c), true

	case FunIsNumeric:
		col := in.Col(n.Args[0])
		if col.Kind != KItem {
			return Col{}, false
		}
		c := make([]bool, nr)
		if k, ok := col.Item.Uniform(); ok {
			num := k == xqt.KInt || k == xqt.KDouble
			for i := range c {
				c[i] = num
			}
		} else {
			for i, k := range col.Item.Tags {
				c[i] = k == xqt.KInt || k == xqt.KDouble
			}
		}
		return Col{Kind: KBool, Bool: c}, true

	case FunEbvAtom:
		col := in.Col(n.Args[0])
		if col.Kind != KItem {
			return Col{}, false
		}
		vec := &col.Item
		k, ok := vec.Uniform()
		if !ok {
			return Col{}, false
		}
		c := make([]bool, nr)
		switch k {
		case xqt.KBool, xqt.KInt:
			for i := range c {
				c[i] = vec.I[i] != 0
			}
		case xqt.KDouble:
			for i := range c {
				c[i] = vec.F[i] != 0 && !math.IsNaN(vec.F[i])
			}
		case xqt.KString, xqt.KUntyped:
			for i := range c {
				c[i] = vec.S[i] != ""
			}
		default: // nodes are always true
			for i := range c {
				c[i] = true
			}
		}
		return Col{Kind: KBool, Bool: c}, true
	}
	return Col{}, false
}

func (e *Exec) nameOf(it xqt.Item) string {
	switch it.K {
	case xqt.KNode:
		return e.Pool.Get(it.Cont).NameOf(int32(it.I))
	case xqt.KAttr:
		c := e.Pool.Get(it.Cont)
		return c.Names.Name(c.AttrName[it.I])
	}
	return ""
}

// arith implements XQuery arithmetic with numeric promotion: integer
// operands stay integral (except div), everything else is xs:double.
func arith(op FunOp, a, b xqt.Item) xqt.Item {
	if a.K == xqt.KInt && b.K == xqt.KInt && op != FunDiv {
		x, y := a.I, b.I
		switch op {
		case FunAdd:
			return xqt.Int(x + y)
		case FunSub:
			return xqt.Int(x - y)
		case FunMul:
			return xqt.Int(x * y)
		case FunIDiv:
			if y == 0 {
				return xqt.Double(math.NaN())
			}
			return xqt.Int(x / y)
		case FunMod:
			if y == 0 {
				return xqt.Double(math.NaN())
			}
			return xqt.Int(x % y)
		}
	}
	x, y := a.AsDouble(), b.AsDouble()
	switch op {
	case FunAdd:
		return xqt.Double(x + y)
	case FunSub:
		return xqt.Double(x - y)
	case FunMul:
		return xqt.Double(x * y)
	case FunDiv:
		return xqt.Double(x / y)
	case FunIDiv:
		return xqt.Int(int64(x / y))
	case FunMod:
		return xqt.Double(math.Mod(x, y))
	}
	return xqt.Double(math.NaN())
}

// atoms materializes the per-row atomization of a column as items (the
// per-pair fallback and the per-row casts of the existential joins).
func (e *Exec) atoms(c *Col) []xqt.Item {
	out := make([]xqt.Item, c.Len())
	if v, ok := e.view(c); ok {
		switch v.tag {
		case xqt.KInt, xqt.KBool:
			for i, x := range v.i {
				out[i] = xqt.Item{K: v.tag, I: x}
			}
		case xqt.KDouble:
			for i, x := range v.f {
				out[i] = xqt.Double(x)
			}
		default:
			for i, s := range v.s {
				out[i] = xqt.Item{K: v.tag, S: s}
			}
		}
		return out
	}
	for i := range out {
		out[i] = e.atomize(c.Item.At(i))
	}
	return out
}

// cmpDomain is the domain xqt.Compare promotes a pair of atoms to.
type cmpDomain uint8

const (
	domPerPair cmpDomain = iota // the pairs of the two columns do not share one domain
	domBool
	domDouble
	domString
)

// atomKinds returns the set of kinds (one bit per xqt.Kind) the rows of
// c have once atomized: nodes become xs:untypedAtomic.
func atomKinds(c *Col) (set uint8) {
	switch c.Kind {
	case KInt:
		return 1 << xqt.KInt
	case KBool:
		return 1 << xqt.KBool
	}
	tags := c.Item.Tags
	if tags == nil {
		tags = []xqt.Kind{c.Item.Tag}
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
// boolean, else a numeric operand makes it xs:double (untypedAtomic and
// string operands are cast), else it compares strings. When every
// (left kind, right kind) pair lands in one domain, each column casts
// to that domain once per row and the typed kernels run; otherwise the
// join compares pair by pair.
func joinDomain(l, r uint8) cmpDomain {
	const boolean, numeric = 1 << xqt.KBool, 1<<xqt.KInt | 1<<xqt.KDouble
	switch {
	case l == boolean || r == boolean:
		return domBool
	case (l|r)&boolean != 0:
		return domPerPair
	case l&^numeric == 0 || r&^numeric == 0:
		return domDouble
	case (l|r)&numeric == 0:
		return domString
	}
	return domPerPair
}

// existKeys casts column c to the comparison keys of domain dom, once
// per row: xs:double values (booleans as 0/1) or strings.
func (e *Exec) existKeys(c *Col, dom cmpDomain) ([]float64, []string) {
	n := c.Len()
	v, ok := e.view(c)
	switch {
	case ok && dom == domDouble:
		return v.floats(n), nil
	case ok && dom == domString:
		return nil, v.strs(n)
	}
	// mixed-tag columns and the boolean domain cast row by row
	atoms := e.atoms(c)
	if dom == domString {
		s := make([]string, n)
		for i, it := range atoms {
			s[i] = it.AsString()
		}
		return nil, s
	}
	f := make([]float64, n)
	for i, it := range atoms {
		if dom == domDouble {
			f[i] = it.AsDouble()
		} else if xqt.Compare(it, xqt.Bool(true), xqt.CmpEq) { // the cast to xs:boolean, as Compare applies it
			f[i] = 1
		}
	}
	return f, nil
}

// execExistJoin evaluates the existential general-comparison join. Both
// inputs resolve to raw xs:double or string key vectors in the one
// domain xqt.Compare promotes their kinds to (see joinDomain) — through
// the typed views when the columns are uniform (the common case),
// through per-row atomization otherwise — and the join kernels below
// run over those raw vectors.
func (e *Exec) execExistJoin(n *ExistJoin, l, r *Table) (*Table, error) {
	liter := l.Ints(n.LIter)
	riter := r.Ints(n.RIter)
	lc, rc := l.Col(n.LItem), r.Col(n.RItem)
	dom := joinDomain(atomKinds(lc), atomKinds(rc))

	var p1, p2 []int64
	switch {
	case dom == domPerPair || n.Cmp == xqt.CmpNe:
		// per-pair promotion via nested loop
		latoms, ratoms := e.atoms(lc), e.atoms(rc)
		e.Stats.ThetaNL++
		charged := 0
		for i := range latoms {
			if i&255 == 255 {
				e.charge(16 * int64(len(p1)-charged))
				charged = len(p1)
				if e.stopRequested() {
					break
				}
			}
			for j := range ratoms {
				if xqt.Compare(latoms[i], ratoms[j], n.Cmp) {
					p1 = append(p1, liter[i])
					p2 = append(p2, riter[j])
				}
			}
		}
		e.charge(16 * int64(len(p1)-charged))
		p1, p2 = dedupPairs(p1, p2)
	default:
		lf, ls := e.existKeys(lc, dom)
		rf, rs := e.existKeys(rc, dom)
		if dom == domString {
			p1, p2 = existTypedJoin(e, n, liter, ls, riter, rs)
		} else {
			p1, p2 = existTypedJoin(e, n, liter, lf, riter, rf)
		}
	}
	out := NewTable([]string{n.Out1, n.Out2}, []ColKind{KInt, KInt})
	out.N = len(p1)
	out.Col(n.Out1).Int = p1
	out.Col(n.Out2).Int = p2
	return out, nil
}

// existTypedJoin runs the typed kernel for n.Cmp over key vectors of
// one comparison domain.
func existTypedJoin[T float64 | string](e *Exec, n *ExistJoin, liter []int64, lv []T, riter []int64, rv []T) (p1, p2 []int64) {
	if n.Cmp != xqt.CmpEq {
		// Figure 8(b): under existential semantics an ordering
		// comparison only needs each iteration's extremum, so both
		// sides reduce to one row per iter before the join.
		e.Stats.ExistAggr++
		lmax := n.Cmp == xqt.CmpGt || n.Cmp == xqt.CmpGe
		liter, lv = reduceExtremum(liter, lv, lmax)
		riter, rv = reduceExtremum(riter, rv, !lmax)
		return existThetaJoin(e, n, liter, lv, riter, rv)
	}
	e.Stats.HashJoins++
	// the build table hashes the whole right input: charge it before
	// the join helper allocates it (over budget, Run surfaces the error)
	if !e.charge(32 * int64(len(rv))) {
		return nil, nil
	}
	return existHashJoin(liter, lv, riter, rv)
}

// reduceExtremum keeps one row per iter: the minimum (max=false) or
// maximum (max=true) value. Input iters are clustered (the inputs are
// [iter, pos] sorted); the output keeps one row per cluster in input
// order. NaN satisfies no comparison, so it is skipped, and an iter
// with nothing but NaN drops out.
func reduceExtremum[T float64 | string](iters []int64, vals []T, max bool) ([]int64, []T) {
	var oi []int64
	var ov []T
	open := false // the current cluster has its output row
	for i, v := range vals {
		if i > 0 && iters[i] != iters[i-1] {
			open = false
		}
		if v != v {
			continue
		}
		if !open {
			oi, ov, open = append(oi, iters[i]), append(ov, v), true
		} else if best := &ov[len(ov)-1]; (max && *best < v) || (!max && v < *best) {
			*best = v
		}
	}
	return oi, ov
}

// existHashJoin evaluates an existential eq join over raw key vectors:
// hash the right input by value (NaN joins nothing, -0 joins +0), probe
// in left order, and eliminate duplicate (iter1, iter2) pairs per
// left-iteration run (the merge-style δ of §4.2).
func existHashJoin[T float64 | string](liter []int64, lv []T, riter []int64, rv []T) (p1, p2 []int64) {
	ht := make(map[T][]int64, len(rv))
	for j, v := range rv {
		if v == v {
			ht[v] = append(ht[v], riter[j])
		}
	}
	for i, v := range lv {
		for _, i2 := range ht[v] {
			p1 = append(p1, liter[i])
			p2 = append(p2, i2)
		}
	}
	return dedupPairs(p1, p2)
}

// thetaHolds applies an ordering comparison to two promoted keys.
func thetaHolds[T float64 | string](a, b T, op xqt.CmpOp) bool {
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
// keys of two extremum-reduced (one row per iter, NaN-free) sides. A
// transient sorted index over the right side tells, by binary search,
// how many rows each left row matches: the output is sized exactly,
// and the run-time "choose-plan" of §4.2 picks from the true hit rate
// between nested-loop join (output directly in [iter1, iter2] order)
// and index lookups (output refine-sorted per iter1 chunk).
func existThetaJoin[T float64 | string](e *Exec, n *ExistJoin, liter []int64, lv []T, riter []int64, rv []T) (p1, p2 []int64) {
	lmax := n.Cmp == xqt.CmpGt || n.Cmp == xqt.CmpGe
	nl, nrt := len(liter), len(riter)

	e.charge(4 * int64(nrt+nl))
	perm := identity(nrt)
	slices.SortFunc(perm, func(a, b int32) int { return cmp.Compare(rv[a], rv[b]) })
	// row i matches perm[cut[i]:] under <, <= and perm[:cut[i]] under >, >=
	cut := make([]int32, nl)
	total := int64(0)
	for i := range cut {
		c := sort.Search(nrt, func(k int) bool { return thetaHolds(lv[i], rv[perm[k]], n.Cmp) != lmax })
		cut[i] = int32(c)
		if lmax {
			total += int64(c)
		} else {
			total += int64(nrt - c)
		}
	}
	strategy := n.Strategy
	if strategy == ThetaAuto {
		strategy = ThetaIndex
		if int64(nl)*int64(nrt) <= 4096 || total*4 >= int64(nl)*int64(nrt) {
			strategy = ThetaNestedLoop // tiny, or result construction dominates
		}
	}
	if strategy == ThetaNestedLoop {
		e.Stats.ThetaNL++
	} else {
		e.Stats.ThetaIdx++
	}
	// a dense theta join approaches nl*nrt pairs: the budget trips here,
	// before they are allocated
	if !e.charge(16 * total) {
		return nil, nil
	}
	p1, p2 = make([]int64, total), make([]int64, total)
	o := 0
	for i := 0; i < nl; i++ {
		if i&255 == 255 && e.stopRequested() {
			return nil, nil
		}
		lo, hi := int(cut[i]), nrt
		if lmax {
			lo, hi = 0, lo
		}
		start := o
		for k := start; k < start+hi-lo; k++ {
			p1[k] = liter[i]
		}
		if strategy == ThetaNestedLoop {
			for j := 0; o < start+hi-lo; j++ {
				if thetaHolds(lv[i], rv[j], n.Cmp) {
					p2[o] = riter[j]
					o++
				}
			}
			continue
		}
		for _, j := range perm[lo:hi] {
			p2[o] = riter[j]
			o++
		}
		// refine-sort the chunk on iter2 (the index delivers value order
		// within an iter1 group)
		slices.Sort(p2[start:o])
	}
	// reduced sides have unique iters: when both ascend (the [iter, pos]
	// contract), the pairs are unique and already in [iter1, iter2] order
	if int64sNonDecreasing(liter) && int64sNonDecreasing(riter) {
		return p1, p2
	}
	return dedupPairs(p1, p2)
}

// dedupPairs removes duplicate (iter1, iter2) pairs and establishes
// [iter1, iter2] order, in place. Inputs that are already iter1-ordered
// (the common case: probes in left order) are deduplicated with a
// per-run merge; otherwise the pairs are sorted first.
func dedupPairs(p1, p2 []int64) ([]int64, []int64) {
	if !int64sNonDecreasing(p1) {
		idx := identity(len(p1))
		slices.SortFunc(idx, func(a, b int32) int {
			return cmp.Or(cmp.Compare(p1[a], p1[b]), cmp.Compare(p2[a], p2[b]))
		})
		q1 := make([]int64, len(p1))
		q2 := make([]int64, len(p2))
		for i, j := range idx {
			q1[i], q2[i] = p1[j], p2[j]
		}
		p1, p2 = q1, q2
	}
	o := 0
	for start, end := 0, 0; start < len(p1); start = end {
		cur := p1[start]
		for end = start + 1; end < len(p1) && p1[end] == cur; end++ {
		}
		run := p2[start:end]
		slices.Sort(run)
		// o never passes the row being read, so compacting in place is safe
		for k, v := range run {
			if k == 0 || v != run[k-1] {
				p1[o], p2[o] = cur, v
				o++
			}
		}
	}
	return p1[:o], p2[:o]
}

func (e *Exec) execElem(n *ElemConstruct, in []*Table) (*Table, error) {
	if e.Transient == nil {
		return nil, fmt.Errorf("ralg: element construction without a transient container")
	}
	loop := in[0].Ints("iter")
	content := in[1]
	citer := content.Ints("iter")
	citem := content.Items("item")
	// attribute value cursors: one per attribute part
	type partCur struct {
		iter  []int64
		items []xqt.Item
		pos   int
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
			attrs[i].parts = append(attrs[i].parts, partCur{iter: t.Ints("iter"), items: t.Items("item")})
		}
	}
	out := NewTable([]string{"iter", "item"}, []ColKind{KInt, KItem})
	ic := out.Col("iter")
	tc := out.Col("item")
	b := store.NewContainerBuilder(e.Transient)
	ci := 0
	built := 0
	for _, it := range loop {
		built++
		if built&1023 == 0 && e.stopRequested() {
			return nil, e.stopErr()
		}
		pre := b.StartElem(n.Tag)
		for a := range attrs {
			var val strings.Builder
			for pi := range attrs[a].parts {
				cur := &attrs[a].parts[pi]
				for cur.pos < len(cur.iter) && cur.iter[cur.pos] < it {
					cur.pos++
				}
				first := true
				for cur.pos < len(cur.iter) && cur.iter[cur.pos] == it {
					if !first {
						val.WriteString(" ")
					}
					first = false
					val.WriteString(e.atomize(cur.items[cur.pos]).AsString())
					cur.pos++
				}
			}
			b.Attr(attrs[a].name, val.String())
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
			item := citem[ci]
			switch item.K {
			case xqt.KNode:
				flush()
				src := e.Pool.Get(item.Cont)
				if src.Kind[item.I] == store.KindDoc {
					// copying a document node copies its children
					end := int32(item.I) + src.Size[item.I]
					for p := int32(item.I) + 1; p <= end; p += src.Size[p] + 1 {
						b.CopyTree(src, p)
					}
				} else {
					b.CopyTree(src, int32(item.I))
				}
				sawContent = true
			case xqt.KAttr:
				src := e.Pool.Get(item.Cont)
				if sawContent || pendingText != "" {
					return nil, xqerr.Newf("XQTY0024", "attribute node after content in element constructor")
				}
				b.Attr(src.Names.Name(src.AttrName[item.I]), src.AttrVal[item.I])
			default:
				if pendingText != "" {
					pendingText += " " + item.AsString()
				} else {
					pendingText = item.AsString()
					sawContent = sawContent || pendingText != ""
				}
			}
			ci++
		}
		flush()
		b.End()
		ic.Int = append(ic.Int, it)
		tc.Item.Append(xqt.Node(e.Transient.ID, pre))
	}
	out.N = ic.Len()
	e.chargeTable(out)
	return out, nil
}
