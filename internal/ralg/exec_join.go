package ralg

import (
	"math/bits"
	"slices"

	"mxq/internal/xqerr"
)

// execHashJoin reads its body off the keys: right keys that run b, b+1,
// … are looked up positionally, so are left ones when the right keys
// ascend (the output stays left-major), and otherwise the right keys are
// hashed.
func (e *Exec) execHashJoin(n *HashJoin, l, r *Table) (*Table, error) {
	lkey, rkey := l.Ints(n.LKey), r.Ints(n.RKey)
	var lidx, ridx []int32
	switch {
	case isRun(rkey):
		e.Stats.PosJoins++
		lidx, ridx = e.posPairs(lkey, rkey)
	case slices.IsSorted(rkey) && isRun(lkey):
		e.Stats.PosJoins++
		ridx, lidx = e.posPairs(rkey, lkey)
	default:
		e.Stats.HashJoins++
		ht := newKeyTable(e, rkey, true)
		for i, k := range lkey {
			if i&4095 == 4095 && e.stopRequested() {
				break
			}
			for j := ht.first(k); j != 0; j = ht.next[j-1] {
				if rkey[j-1] == k { // a bucket may chain other keys too
					lidx, ridx = append(grown(e, lidx, 1), int32(i)), append(grown(e, ridx, 1), j-1)
				}
			}
		}
	}
	return e.joinGather(l, r, n.LCols, n.RCols, lidx, ridx)
}

// isRun reports whether keys is the non-empty run b, b+1, b+2, …; one
// that wraps past the largest integer ends below its start.
func isRun[T int32 | int64](keys []T) bool {
	for i, k := range keys {
		if k-keys[0] != T(i) {
			return false
		}
	}
	return len(keys) > 0 && keys[len(keys)-1] >= keys[0]
}

// posPairs is the positional join: run is a run of keys, so key k pairs
// row i of keys with row k-run[0] of run, no table needed.
func (e *Exec) posPairs(keys, run []int64) (rows, targets []int32) {
	rows, targets = dirty[int32](e, scratchRegion, len(keys)), dirty[int32](e, scratchRegion, len(keys))
	o := 0
	for i, k := range keys {
		if i&8191 == 8191 && e.stopRequested() {
			break
		}
		if j := uint64(k - run[0]); j < uint64(len(run)) {
			rows[o], targets[o] = int32(i), int32(j)
			o++
		}
	}
	return rows[:o], targets[:o]
}

func (e *Exec) joinGather(l, r *Table, lcols, rcols []ColRef, lidx, ridx []int32) (*Table, error) {
	out := &Table{N: len(lidx)}
	ncols := len(lcols) + len(rcols)
	out.cols = make([]ItemVec, ncols)
	for _, ref := range lcols {
		out.names = append(out.names, ref.Dst)
	}
	for _, ref := range rcols {
		out.names = append(out.names, ref.Dst)
	}
	// a side whose every row joins exactly once, in order — the usual
	// outcome of mapping an iteration back to its scope — is shared, not
	// copied: only gathered columns are materialized
	lall, rall := identityIdx(lidx, l.N), identityIdx(ridx, r.N)
	for i := range out.cols {
		src, idx, all := r, ridx, rall
		ref := ColRef{}
		if i < len(lcols) {
			src, idx, all, ref = l, lidx, lall, lcols[i]
		} else {
			ref = rcols[i-len(lcols)]
		}
		if out.cols[i] = *src.Col(ref.Src); !all {
			out.cols[i] = out.cols[i].gatherIn(e, outRegion, idx)
		}
	}
	return out, nil
}

func (e *Exec) execCross(n *Cross, l, r *Table) (*Table, error) {
	total := int64(l.N) * int64(r.N)
	if total > MaxRows {
		return nil, xqerr.Newf(xqerr.CodeResourceLimit,
			"Cartesian product of %d x %d rows exceeds the %d-row limit", l.N, r.N, MaxRows)
	}
	e.Stats.CrossRows += total
	lidx, ridx := dirty[int32](e, scratchRegion, int(total)), dirty[int32](e, scratchRegion, int(total))
	for i := 0; i < l.N; i++ {
		if i&255 == 255 && e.stopRequested() {
			return nil, e.stopErr()
		}
		for j := 0; j < r.N; j++ {
			lidx[i*r.N+j], ridx[i*r.N+j] = int32(i), int32(j)
		}
	}
	return e.joinGather(l, r, n.LCols, n.RCols, lidx, ridx)
}

func (e *Exec) execDiff(n *Diff, l, r *Table) *Table {
	rset := newKeyTable(e, r.Ints(n.RKey), true)
	idx, o := dirty[int32](e, scratchRegion, l.N), 0
	for i, k := range l.Ints(n.LKey) {
		if i&8191 == 8191 && e.stopRequested() {
			break // RunSchedule's post-operator checkpoint discards the partial table
		}
		if rset.find(k) == 0 {
			idx[o] = int32(i)
			o++
		}
	}
	return e.gather(l, idx[:o])
}

// keyTable is the executor's one keyed-lookup structure (docs/executor.md,
// "Keyed lookup: one table"): rows chained by the bucket of their code —
// an integer key, or a hash of keys (hashKeys, keyCodes) — in scratch
// memory. A bucket may chain other codes, and a hash other keys: probes
// compare both. Entries are 1 + a row, 0 ends a chain.
type keyTable[K int64 | uint64] struct {
	codes       []K
	heads, next []int32
	lo          uint64 // dense: code c's bucket is c-lo
	shift       uint   // hashed: the top 64-shift bits of c's hash; 0 when dense
}

// newKeyTable makes the table for codes, chaining every row (each chain in
// row order) or none: a bucket per code value when they span at most 4·N
// (iterations, ranks), else 2^k ≥ N hashed ones. Its callers poll.
func newKeyTable[K int64 | uint64](e *Exec, codes []K, chainAll bool) keyTable[K] {
	t := keyTable[K]{codes: codes, next: dirty[int32](e, scratchRegion, len(codes))}
	width, buckets := bits.Len(uint(len(codes))), 0
	if len(codes) > 0 {
		lo, hi := slices.Min(codes), slices.Max(codes)
		if span := uint64(hi - lo); span <= 4*uint64(len(codes)) {
			t.lo, buckets = uint64(lo), int(span)+1
		}
	}
	if buckets == 0 {
		buckets, t.shift = 1<<width, uint(64-width)
	}
	t.heads = zeroed[int32](e, scratchRegion, buckets)
	for j := len(codes) - 1; chainAll && j >= 0; j-- {
		t.add(int32(j))
	}
	return t
}

// bucket returns code c's bucket, len(heads) or past it when c has none.
func (t *keyTable[K]) bucket(c K) uint64 {
	if t.shift == 0 {
		return uint64(c) - t.lo
	}
	return uint64(c) * 0x9E3779B97F4A7C15 >> t.shift // Fibonacci mixing spreads ascending codes
}

// first returns the head of the chain code c's rows are in.
func (t *keyTable[K]) first(c K) int32 {
	if b := t.bucket(c); b < uint64(len(t.heads)) {
		return t.heads[b]
	}
	return 0
}

// add chains row i ahead of the rows already in its bucket.
func (t *keyTable[K]) add(i int32) {
	b := t.bucket(t.codes[i])
	t.next[i], t.heads[b] = t.heads[b], i+1
}

// find returns 1 + the first chained row of code c, 0 when there is none.
func (t *keyTable[K]) find(c K) int32 {
	j := t.first(c)
	for j != 0 && t.codes[j-1] != c {
		j = t.next[j-1]
	}
	return j
}

// groupRows numbers the groups of rows with equal keys 0, 1, … in
// first-arrival order (gid[i] is row i's group), chaining each group's
// first row unless the codes ascend. same compares the keys of two rows
// with equal codes; nil means the codes are the keys. Rows past a stop go
// to group 0: RunSchedule's checkpoint discards what is made of them.
func groupRows[K int64 | uint64](e *Exec, codes []K, same func(r, i int32) bool) (gid []int32, groups int) {
	gid = dirty[int32](e, scratchRegion, len(codes))
	if same == nil && slices.IsSorted(codes) { // clustered: the groups are the runs, no table
		for i := range codes {
			if i == 0 || codes[i] != codes[i-1] {
				groups++
			}
			gid[i] = int32(groups - 1)
		}
		return gid, groups
	}
	t := newKeyTable(e, codes, false)
	for i, c := range codes {
		if i&8191 == 8191 && e.stopRequested() {
			clear(gid[i:])
			break
		}
		j := t.first(c)
		for j != 0 && (t.codes[j-1] != c || same != nil && !same(j-1, int32(i))) {
			j = t.next[j-1]
		}
		if j != 0 {
			gid[i] = gid[j-1]
			continue
		}
		gid[i], groups = int32(groups), groups+1
		t.add(int32(i))
	}
	return gid, groups
}
