package ralg

import (
	"cmp"
	"math"
	"slices"
	"strings"

	"mxq/internal/xqt"
)

// sortKey is one normalized sort column, extracted once per sort so the
// kernel never interprets a value per comparison. Exactly one of u, s
// and col is set:
//
//	u    order-preserving uint64 keys, Desc folded in as bit-complement
//	     (KInt/KBool columns, uniform numeric/boolean item columns, node
//	     columns as (cont, pre, attr-bit))
//	s    a uniform string/untyped item column, compared as strings
//	col  the generic extractor: a mixed-tag or NaN-bearing column
//	     compared row by row with xqt.SortLess
type sortKey struct {
	u    []uint64
	s    []string
	col  *Col
	desc bool // applies to s and col
}

// sortKeys extracts the keys of the named sort columns, into scratch
// memory; typed is false when some column needed the generic extractor.
func (e *Exec) sortKeys(t *Table, by []string, desc []bool) (keys []sortKey, typed bool) {
	typed = true
	for k, name := range by {
		c := t.Col(name)
		d := k < len(desc) && desc[k]
		var flip uint64
		if d {
			flip = ^uint64(0)
		}
		switch c.Kind {
		case KInt:
			u := dirty[uint64](e, scratchRegion, t.N)
			for i, x := range c.Int {
				u[i] = uint64(x) ^ 1<<63 ^ flip
			}
			keys = append(keys, sortKey{u: u})
		case KBool:
			u := zeroed[uint64](e, scratchRegion, t.N)
			for i, b := range c.Bool {
				if b != d {
					u[i] = 1
				}
			}
			keys = append(keys, sortKey{u: u})
		default:
			ik := e.itemKeys(&c.Item, flip)
			if ik == nil {
				ik, typed = []sortKey{{col: c}}, false
			}
			for i := range ik {
				ik[i].desc = d
			}
			keys = append(keys, ik...)
		}
	}
	return keys, typed
}

// itemKeys maps an item column to typed keys that order exactly like
// xqt.SortLess, or returns nil when only the generic comparator does:
// NaN compares equal to everything there (not a weak order), and rows
// of mixed kinds order by kind rank first.
func (e *Exec) itemKeys(v *ItemVec, flip uint64) []sortKey {
	n := v.Len()
	tag, uniform := v.Uniform()
	if !uniform {
		tag = xqt.KNode
		for _, k := range v.Tags {
			if k < xqt.KNode {
				return nil
			}
		}
	}
	if tag == xqt.KString || tag == xqt.KUntyped {
		keys := []sortKey{{s: v.S}}
		if tag == xqt.KUntyped && slices.Contains(v.S, xqt.EmptyLeast.S) {
			// the EmptyLeast sentinel sorts before every string, "" included:
			// a leading rank key carries that, and only columns holding the
			// sentinel pay for it
			rank := zeroed[uint64](e, scratchRegion, n)
			for j, s := range v.S {
				if s != xqt.EmptyLeast.S {
					rank[j] = 1
				}
				rank[j] ^= flip
			}
			keys = []sortKey{{u: rank}, keys[0]}
		}
		return keys
	}
	u := dirty[uint64](e, scratchRegion, n)
	switch tag {
	case xqt.KBool:
		for i, x := range v.I {
			u[i] = uint64(x) ^ flip
		}
	case xqt.KInt: // items order as xs:double, like SortLess (exact past 2^53 it is not)
		for i, x := range v.I {
			u[i] = floatKey(float64(x)) ^ flip
		}
	case xqt.KDouble:
		for i, f := range v.F {
			if f != f {
				return nil
			}
			u[i] = floatKey(f) ^ flip
		}
	default:
		// document order: container, then pre/attribute row, an element
		// before an attribute at the same rank
		var bad uint64
		for i, x := range v.I {
			k := uint64(v.Cont[i])<<33 | uint64(x)<<1
			if v.KindAt(i) == xqt.KAttr {
				k |= 1
			}
			bad |= uint64(v.Cont[i])>>31 | uint64(x)>>32
			u[i] = k ^ flip
		}
		if bad != 0 {
			return nil // ids outside the packed ranges: negative, or a row past 2^32
		}
	}
	return []sortKey{{u: u}}
}

// floatKey maps an xs:double to a uint64 that orders like the value
// (-0 and +0 share a key, as they compare equal).
func floatKey(f float64) uint64 {
	if f == 0 {
		return 1 << 63
	}
	if b := math.Float64bits(f); b>>63 == 0 {
		return b | 1<<63
	} else {
		return ^b
	}
}

// compareCol is the generic comparator: rows i and j of one column,
// items via xqt.SortLess (document order for nodes, value order for
// atoms).
func compareCol(c *Col, i, j int32) int {
	switch c.Kind {
	case KInt:
		return cmp.Compare(c.Int[i], c.Int[j])
	case KBool:
		a, b := c.Bool[i], c.Bool[j]
		switch {
		case !a && b:
			return -1
		case a && !b:
			return 1
		}
		return 0
	}
	a, b := c.Item.At(int(i)), c.Item.At(int(j))
	switch {
	case xqt.SortLess(a, b):
		return -1
	case xqt.SortLess(b, a):
		return 1
	}
	return 0
}

// compareRows compares rows i and j on the given columns, ascending.
func compareRows(by []*Col, i, j int32) int {
	for _, c := range by {
		if r := compareCol(c, i, j); r != 0 {
			return r
		}
	}
	return 0
}

// compareKeys compares rows i and j lexicographically on keys.
func compareKeys(keys []sortKey, i, j int32) int {
	for k := range keys {
		key := &keys[k]
		var r int
		switch {
		case key.u != nil:
			if r = cmp.Compare(key.u[i], key.u[j]); r != 0 {
				return r
			}
			continue
		case key.col != nil:
			r = compareCol(key.col, i, j)
		default:
			r = strings.Compare(key.s[i], key.s[j])
		}
		if r != 0 {
			if key.desc {
				return -r
			}
			return r
		}
	}
	return 0
}

// radixMin is the input size from which the LSD radix kernel beats the
// comparison sort (measured crossover: 16 rows for one-byte keys, about
// 32 for three-byte ones); smaller inputs sort without a second buffer.
const radixMin = 32

// SortIdx returns the stable permutation that orders t's rows by the
// given columns, or nil when the rows are already in that order (the
// caller keeps its input: no permutation, no gather).
// The permutation is scratch memory: it lives until the operator returns.
// refinePrefix > 0 asserts that the input is already sorted on the
// first refinePrefix columns; only runs with equal prefixes are
// re-sorted (the paper's incremental refine-sort). A radix sort that
// observes a cancelled or over-budget execution also returns nil; Run
// discards what the operator builds then. It is the one sort entry
// point of the package: Sort, refine sort and RankSort numbering all
// funnel through it.
func (e *Exec) SortIdx(t *Table, by []string, desc []bool, refinePrefix int) []int32 {
	n := t.N
	if refinePrefix >= len(by) || n < 2 {
		return nil
	}
	if rawSorted(t, by, desc) {
		return nil
	}
	var run []uint64 // ordinal of each row's equal-prefix run
	var keys []sortKey
	if refinePrefix > 0 {
		pre, _ := e.sortKeys(t, by[:refinePrefix], nil)
		run = zeroed[uint64](e, scratchRegion, n)
		for i, start := 1, 0; i < n; i++ {
			run[i] = run[i-1]
			if compareKeys(pre, int32(start), int32(i)) != 0 {
				run[i]++
				start = i
			}
		}
		keys = append(keys, sortKey{u: run})
		if len(desc) > refinePrefix {
			desc = desc[refinePrefix:]
		} else {
			desc = nil
		}
	}
	suffix, typed := e.sortKeys(t, by[refinePrefix:], desc)
	keys = append(keys, suffix...)

	radix := typed && n >= radixMin
	if typed {
		sorted := true
		for i := 1; i < n && sorted; i++ {
			sorted = compareKeys(keys, int32(i-1), int32(i)) <= 0
		}
		if sorted {
			return nil
		}
		for k := range keys {
			radix = radix && keys[k].u != nil
		}
	}
	idx := identity(e, n)
	switch {
	case !typed:
		// the generic path is the old comparator sort, run for run: where
		// NaN makes the comparator inconsistent, the outcome is whatever
		// this algorithm yields, so it cannot be replaced piecemeal
		for lo, hi := 0, 0; lo < n; lo = hi {
			for hi = lo + 1; hi < n && (run == nil || run[hi] == run[lo]); hi++ {
			}
			slices.SortStableFunc(idx[lo:hi], func(a, b int32) int { return compareKeys(suffix, a, b) })
		}
	case !radix:
		slices.SortFunc(idx, func(a, b int32) int {
			if r := compareKeys(keys, a, b); r != 0 {
				return r
			}
			return cmp.Compare(a, b) // the row index as tie-break: stability for free
		})
	default:
		// LSD over the key columns, last column first; every pass is stable
		tmp := dirty[int32](e, scratchRegion, n)
		for k := len(keys) - 1; k >= 0 && idx != nil; k-- {
			idx, tmp = e.radixSort(keys[k].u, idx, tmp)
		}
	}
	return idx
}

// rawCol is a column the presorted checks read in place: the (container,
// pre) payload vectors of a uniform node column or, with hi nil, an
// int64 column.
type rawCol struct {
	hi []int32
	lo []int64
}

// rawColsSorted reports whether the n rows are in ascending
// lexicographic order on cols.
func rawColsSorted(cols []rawCol, n int) bool {
	for i := 1; i < n; i++ {
		for _, c := range cols {
			if c.hi != nil && c.hi[i-1] != c.hi[i] {
				if c.hi[i-1] > c.hi[i] {
					return false
				}
				break
			}
			if c.lo[i-1] != c.lo[i] {
				if c.lo[i-1] > c.lo[i] {
					return false
				}
				break
			}
		}
	}
	return true
}

// rawSorted is the presorted check on the raw column vectors, before any
// key is extracted: it reports true only when every sort column is an
// ascending KInt column or a uniform node column — the iter/pos/item
// columns of path steps, which order by their payload vectors exactly as
// their extracted keys do — and the rows are in order. On false the
// caller takes the key route, which decides everything else.
func rawSorted(t *Table, by []string, desc []bool) bool {
	cols := make([]rawCol, len(by))
	for k, name := range by {
		c := t.Col(name)
		tag, uniform := c.Item.Uniform()
		switch {
		case k < len(desc) && desc[k]:
			return false
		case c.Kind == KInt:
			cols[k] = rawCol{lo: c.Int}
		case c.Kind == KItem && uniform && (tag == xqt.KNode || tag == xqt.KAttr):
			cols[k] = rawCol{hi: c.Item.Cont, lo: c.Item.I}
		default:
			return false
		}
	}
	return rawColsSorted(cols, t.N)
}

// identity returns the row indexes 0..n-1, in scratch memory.
func identity(e *Exec, n int) []int32 {
	idx := dirty[int32](e, scratchRegion, n)
	for i := range idx {
		idx[i] = int32(i)
	}
	return idx
}

// radixSort reorders the row indexes idx by their keys u[idx[.]] with
// stable byte-wise counting passes, ping-ponging between the two
// buffers, and returns (sorted, spare); bytes on which all keys agree
// cost no pass. It polls once per pass and returns nil when the
// execution is cancelled or over budget: the caller then keeps its
// input, and Run discards whatever the operator builds from it.
func (e *Exec) radixSort(u []uint64, idx, tmp []int32) ([]int32, []int32) {
	var cnt [8][256]int32
	for _, k := range u {
		for b := range cnt {
			cnt[b][byte(k>>(8*b))]++
		}
	}
	for b := range cnt {
		c := &cnt[b]
		shift := 8 * b
		if c[byte(u[0]>>shift)] == int32(len(u)) {
			continue
		}
		if e.stopRequested() {
			return nil, nil
		}
		sum := int32(0)
		for v, m := range c {
			c[v], sum = sum, sum+m
		}
		for _, i := range idx {
			d := byte(u[i] >> shift)
			tmp[c[d]] = i
			c[d]++
		}
		idx, tmp = tmp, idx
	}
	return idx, tmp
}

// CompareRowsOn compares rows i and j of t on the named columns,
// ascending, with the generic comparator (items via xqt.SortLess).
// Planck's literal-claim verification and optcheck's input synthesis
// share it so "sorted" means exactly what the executor means by it.
func CompareRowsOn(t *Table, by []string, i, j int) int {
	return compareRows(colsOf(t, by), int32(i), int32(j))
}

// IsSortedBy reports whether t is sorted on the given columns.
func IsSortedBy(t *Table, by []string) bool {
	cols := colsOf(t, by)
	for i := 1; i < t.N; i++ {
		if compareRows(cols, int32(i-1), int32(i)) > 0 {
			return false
		}
	}
	return true
}

func colsOf(t *Table, names []string) []*Col {
	cols := make([]*Col, len(names))
	for i, n := range names {
		cols[i] = t.Col(n)
	}
	return cols
}
