package ralg

import (
	"math/bits"
	"slices"

	"mxq/internal/xqerr"
)

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
			for i := lo; i < hi; i++ {
				if (i-lo)&4095 == 4095 && e.stopRequested() {
					break
				}
				for j := ht.first(lkey[i]); j != 0; j = ht.next[j-1] {
					if rkey[j-1] != lkey[i] {
						continue // another key of the same bucket
					}
					li, ri = append(grown(e, li, 1), int32(i)), append(grown(e, ri, 1), j-1)
				}
			}
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
		ri, ti, o := dirty[int32](e, scratchRegion, hi-lo), dirty[int32](e, scratchRegion, hi-lo), 0
		for i := lo; i < hi; i++ {
			if (i-lo)&8191 == 8191 && e.stopRequested() {
				break
			}
			if j := keys[i] - base; j >= 0 && j < int64(n) {
				ri[o], ti[o] = int32(i), int32(j)
				o++
			}
		}
		return ri[:o], ti[:o]
	})
}

func (e *Exec) joinGather(l, r *Table, lcols, rcols []ColRef, lidx, ridx []int32) (*Table, error) {
	out := &Table{N: len(lidx)}
	ncols := len(lcols) + len(rcols)
	out.cols = make([]Col, ncols)
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
	e.forCols(len(lidx), ncols, func(i int) {
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
	})
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
	rset := e.newKeySet(r.Ints(n.RKey))
	idx, o := dirty[int32](e, scratchRegion, l.N), 0
	for i, k := range l.Ints(n.LKey) {
		if i&8191 == 8191 && e.stopRequested() {
			break // Run's post-operator checkpoint discards the partial table
		}
		if !rset.has(k) {
			idx[o] = int32(i)
			o++
		}
	}
	return e.gather(l, idx[:o])
}

// keySet is a membership set over one int64 key column: a bitmap when
// the key span is at most 4·N (the rule the RankStream counters use), a
// map as the last resort.
type keySet struct {
	lo   int64
	bits []uint64
	m    map[int64]struct{}
}

func (e *Exec) newKeySet(keys []int64) keySet {
	if len(keys) == 0 {
		return keySet{}
	}
	lo, hi := slices.Min(keys), slices.Max(keys)
	if span := uint64(hi - lo); span <= 4*uint64(len(keys)) {
		s := keySet{lo: lo, bits: zeroed[uint64](e, scratchRegion, int(span>>6)+1)}
		for _, k := range keys {
			d := uint64(k - lo)
			s.bits[d>>6] |= 1 << (d & 63)
		}
		return s
	}
	e.charge(scratchRegion, 16*int64(len(keys))) // the map, sized up front
	s := keySet{m: make(map[int64]struct{}, len(keys))}
	for _, k := range keys {
		s.m[k] = struct{}{}
	}
	return s
}

func (s *keySet) has(k int64) bool {
	if s.bits != nil {
		d := uint64(k - s.lo)
		return d>>6 < uint64(len(s.bits)) && s.bits[d>>6]>>(d&63)&1 != 0
	}
	_, ok := s.m[k]
	return ok
}

// hashTable is a bucket-chained join hash table over the right key
// column, in scratch memory. Partition w owns the keys with
// keyPart(k, w) and has its own bucket heads; one next array chains the
// rows of a bucket in right-input order. Entries are 1 + a row, 0 ends
// a chain; a bucket may chain rows of several keys.
type hashTable struct {
	heads [][]int32
	next  []int32
	shift uint // a key's bucket is the top 64-shift bits of its hash
}

// hashKey is Fibonacci mixing, so dense ascending keys spread evenly.
func hashKey(k int64) uint64 { return uint64(k) * 0x9E3779B97F4A7C15 }

// keyPart maps a join key to its owning partition.
func keyPart(k int64, nparts int) int {
	if nparts == 1 {
		return 0
	}
	return int((hashKey(k) >> 32) % uint64(nparts))
}

// first returns the head of the chain holding k's rows.
func (h *hashTable) first(k int64) int32 {
	return h.heads[keyPart(k, len(h.heads))][hashKey(k)>>h.shift]
}

// buildHashTable builds the right-side key -> row-chain table, one task
// per key partition: each task scans the whole key column, last row
// first, and pushes only the keys it owns onto their buckets, so no
// merge is needed and every chain is in right-input order whatever the
// partition count. A small build side has the one partition that owns
// every key.
func (e *Exec) buildHashTable(rkey []int64) *hashTable {
	nparts := e.keyPartitions(len(rkey))
	width := bits.Len(uint(len(rkey) / nparts)) // 2^width buckets per partition
	h := &hashTable{heads: make([][]int32, nparts), next: dirty[int32](e, scratchRegion, len(rkey)), shift: uint(64 - width)}
	e.forTasks(nparts, func(w int) {
		head := zeroed[int32](e, scratchRegion, 1<<width)
		for j := len(rkey) - 1; j >= 0; j-- {
			if j&8191 == 0 && e.stopRequested() {
				break
			}
			if k := rkey[j]; keyPart(k, nparts) == w {
				b := hashKey(k) >> h.shift
				h.next[j], head[b] = head[b], int32(j)+1
			}
		}
		h.heads[w] = head
	})
	return h
}
