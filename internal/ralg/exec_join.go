package ralg

import "mxq/internal/xqerr"

func (e *Exec) execHashJoin(n *HashJoin, l, r *Table) (*Table, error) {
	lkey := l.Ints(n.LKey)
	rkey := r.Ints(n.RKey)
	var lidx, ridx []int32
	switch {
	case n.Pos && r.N > 0:
		e.Stats.PosJoins++
		lidx, ridx = e.posPairs(lkey, rkey[0], r.N)
	case n.PosLeft && l.N > 0:
		e.Stats.PosJoins++
		ridx, lidx = e.posPairs(rkey, lkey[0], l.N)
	default:
		e.Stats.HashJoins++
		ht := e.buildHashTable(rkey)
		lidx, ridx = e.chunkPairs(l.N, func(lo, hi int) ([]int32, []int32) {
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

// posPairs is the positional join: the other side's keys are the dense
// run base, base+1, … of n rows, so key k pairs row i of keys with row
// k-base over there, no table needed.
func (e *Exec) posPairs(keys []int64, base int64, n int) (rows, targets []int32) {
	return e.chunkPairs(len(keys), func(lo, hi int) ([]int32, []int32) {
		var ri, ti []int32
		for i := lo; i < hi; i++ {
			if (i-lo)&8191 == 8191 && e.stopRequested() {
				break
			}
			if j := keys[i] - base; j >= 0 && j < int64(n) {
				ri = append(ri, int32(i))
				ti = append(ti, int32(j))
			}
		}
		return ri, ti
	})
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
	e.forCols(len(lidx), ncols, func(i int) {
		if i < len(lcols) {
			out.cols[i] = l.Col(lcols[i].Src).Gather(lidx)
		} else {
			out.cols[i] = r.Col(rcols[i-len(lcols)].Src).Gather(ridx)
		}
	})
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
	return e.gather(l, idx)
}

// hashTable is a key-partitioned join hash table: partition w owns the
// keys with keyPart(k, w).
type hashTable struct {
	parts []map[int64][]int32
}

// keyPart maps a join key to its owning partition (Fibonacci mixing so
// dense ascending keys spread evenly).
func keyPart(k int64, nparts int) int {
	if nparts == 1 {
		return 0
	}
	return int((uint64(k) * 0x9E3779B97F4A7C15 >> 32) % uint64(nparts))
}

func (h *hashTable) lookup(k int64) []int32 {
	return h.parts[keyPart(k, len(h.parts))][k]
}

// hashEntryBytes is the accounted cost of one build-table entry: the
// int32 row index plus amortized map bucket overhead.
const hashEntryBytes = 16

// buildHashTable builds the right-side key -> row-list table, one task
// per key partition: each task scans the whole key column but inserts
// only the keys it owns, so no merge is needed and every key's row list
// is in right-input order whatever the partition count. A small build
// side has the one partition that owns every key.
func (e *Exec) buildHashTable(rkey []int64) *hashTable {
	nparts := e.keyPartitions(len(rkey))
	h := &hashTable{parts: make([]map[int64][]int32, nparts)}
	e.forTasks(nparts, func(w int) {
		m := make(map[int64][]int32, len(rkey)/nparts+1)
		inserted := 0
		for j, k := range rkey {
			if j&8191 == 8191 {
				// charge the build as it grows so an over-budget query
				// aborts mid-build instead of after materializing it
				e.charge(int64(inserted) * hashEntryBytes)
				inserted = 0
				if e.stopRequested() {
					break
				}
			}
			if keyPart(k, nparts) == w {
				m[k] = append(m[k], int32(j))
				inserted++
			}
		}
		e.charge(int64(inserted) * hashEntryBytes)
		h.parts[w] = m
	})
	return h
}
