package ralg

import (
	"cmp"
	"math"
	"math/bits"
	"slices"
	"strings"

	"mxq/internal/xqt"
)

// sortKey is one normalized sort column, extracted once per sort so the
// kernel never interprets a value per comparison. Exactly one of u and s
// is set:
//
//	u  order-preserving uint64 keys, Desc folded in as bit-complement
//	s  an item column's strings, compared as strings
type sortKey struct {
	u    []uint64
	s    []string
	desc bool // applies to s
}

// sortKeys extracts the keys of the sort columns by[from:] (desc is
// indexed like by), into scratch memory. Every order the executor
// establishes or checks reads them: the sort kernel, the Step-input
// check and Distinct.
func (e *Exec) sortKeys(t *Table, by []string, desc []bool, from int) []sortKey {
	var keys []sortKey
	for k := from; k < len(by); k++ {
		var flip uint64
		if k < len(desc) && desc[k] {
			flip = ^uint64(0)
		}
		keys = e.appendItemKeys(keys, t.Col(by[k]), inexactInts(e, t, by, k), flip)
	}
	return keys
}

// inexactInts reports which rows of sort column by[k] hold integers that
// compare as xs:double: those whose partition holds an xs:double row, as
// F&O's numeric promotion has it. A partition is one value of the
// leading key by[0] when that is an xs:integer column (iter or outer in
// every plan xqc emits); by[0] itself, or a column led by another kind,
// is one partition. So integers past 2^53 stay apart in an iteration of
// integers while another iteration of the same column holds a double.
func inexactInts(e *Exec, t *Table, by []string, k int) func(i int) bool {
	v := t.Col(by[k])
	if !slices.Contains(v.Tags, xqt.KDouble) { // then no partition holds one
		return func(int) bool { return false }
	}
	lead := t.Col(by[0])
	if k == 0 || lead.Tags != nil || lead.Tag != xqt.KInt { // one partition, holding a double
		return func(int) bool { return true }
	}
	gid, groups := groupRows(e, lead.I, nil)
	with := zeroed[int32](e, scratchRegion, groups) // 1 for a partition holding a double
	for i, tag := range v.Tags {
		if tag == xqt.KDouble {
			with[gid[i]] = 1
		}
	}
	return func(i int) bool { return with[gid[i]] != 0 }
}

// appendItemKeys appends the keys that order a column like XQuery's
// order by: a rank key when the rows span several of xqt's sort ranks
// (the empty key, numbers, strings, booleans, nodes), then one value key
// per rank present. Numbers order as xs:double with NaN below every
// number (floatKey) — but integers exactly, as int64, unless inexact
// (inexactInts) — booleans false first, strings as strings, and nodes by
// container, then docOrderKeys (an attribute after its owner element). A
// row holds zero in the value keys of the other ranks: the rank key has
// told such rows apart before those are read.
func (e *Exec) appendItemKeys(keys []sortKey, v *ItemVec, inexact func(i int) bool, flip uint64) []sortKey {
	n := v.Len()
	if tag, uniform := v.Uniform(); uniform && tag == xqt.KInt { // iter, pos and rank columns
		u := dirty[uint64](e, scratchRegion, n)
		for i, x := range v.I {
			u[i] = intKey(x) ^ flip
		}
		return append(keys, sortKey{u: u})
	}
	rank := func(i int) int {
		if k := v.KindAt(i); k != xqt.KUntyped || v.S[i] != xqt.EmptyLeast.S {
			return xqt.KindRank(k)
		}
		return xqt.RankEmpty
	}
	var ranks uint // the set of ranks present
	if tag, uniform := v.Uniform(); uniform && tag != xqt.KUntyped {
		ranks = 1 << xqt.KindRank(tag)
	} else {
		for i := range n {
			ranks |= 1 << rank(i)
		}
	}
	if bits.OnesCount(ranks) > 1 {
		u := dirty[uint64](e, scratchRegion, n)
		for i := range u {
			u[i] = uint64(rank(i)) ^ flip
		}
		keys = append(keys, sortKey{u: u})
	}
	if ranks&(1<<xqt.RankNumeric|1<<xqt.RankBool) != 0 {
		u := dirty[uint64](e, scratchRegion, n)
		for i := range u {
			switch v.KindAt(i) {
			case xqt.KInt:
				if inexact(i) {
					u[i] = floatKey(float64(v.I[i])) ^ flip
				} else {
					u[i] = intKey(v.I[i]) ^ flip
				}
			case xqt.KDouble:
				u[i] = floatKey(v.F[i]) ^ flip
			case xqt.KBool:
				u[i] = uint64(v.I[i]) ^ flip
			default:
				u[i] = 0
			}
		}
		keys = append(keys, sortKey{u: u})
	}
	if ranks&(1<<xqt.RankString) != 0 {
		keys = append(keys, sortKey{s: v.S, desc: flip != 0})
	}
	if ranks&(1<<xqt.RankNode) != 0 {
		cont, pos := dirty[uint64](e, scratchRegion, n), e.docOrderKeys(v)
		for i := range cont {
			cont[i], pos[i] = intKey(int64(v.Cont[i]))^flip, pos[i]^flip
		}
		keys = append(keys, sortKey{u: cont}, sortKey{u: pos})
	}
	return keys
}

// intKey maps an int64 to a uint64 that orders like the value.
func intKey(x int64) uint64 { return uint64(x) ^ 1<<63 }

// floatKey maps an xs:double to a uint64 that orders like the value, NaN
// lowest (-0 and +0 share a key, as they compare equal).
func floatKey(f float64) uint64 {
	switch b := math.Float64bits(f); {
	case f != f:
		return 0
	case f == 0:
		return 1 << 63
	case b>>63 == 0:
		return b | 1<<63
	default:
		return ^b
	}
}

// rowCol is a column compareRows reads, with the rows whose integers
// compare as xs:double (inexactInts): the others compare as int64, as
// their sort keys do.
type rowCol struct {
	v       *ItemVec
	inexact func(i int) bool
}

// compareRows compares rows i and j on the given columns, ascending, one
// boxed comparison per column, by xqt.SortLess but for exact integers;
// an element and an attribute, whose order needs the owner a table does
// not carry, are out of order (1) both ways.
func compareRows(by []rowCol, i, j int) int {
	for _, c := range by {
		switch a, b := c.v.At(i), c.v.At(j); {
		case a.K == xqt.KNode && b.K == xqt.KAttr || a.K == xqt.KAttr && b.K == xqt.KNode:
			return 1
		case a.K == xqt.KInt && b.K == xqt.KInt && !c.inexact(i):
			if r := cmp.Compare(a.I, b.I); r != 0 {
				return r
			}
		case xqt.SortLess(a, b):
			return -1
		case xqt.SortLess(b, a):
			return 1
		}
	}
	return 0
}

// compareKeys compares rows i and j lexicographically on keys.
func compareKeys(keys []sortKey, i, j int32) int {
	for k := range keys {
		key := &keys[k]
		if key.u != nil {
			if r := cmp.Compare(key.u[i], key.u[j]); r != 0 {
				return r
			}
		} else if r := strings.Compare(key.s[i], key.s[j]); r != 0 {
			if key.desc {
				return -r
			}
			return r
		}
	}
	return 0
}

// keysSorted reports whether the n rows are in ascending order on keys.
func keysSorted(keys []sortKey, n int) bool {
	for i := 1; i < n; i++ {
		if compareKeys(keys, int32(i-1), int32(i)) > 0 {
			return false
		}
	}
	return true
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
// funnel through it. Every column reduces to typed keys: radix over
// uint64 keys, a comparison sort for string keys or small inputs.
func (e *Exec) SortIdx(t *Table, by []string, desc []bool, refinePrefix int) []int32 {
	n := t.N
	if refinePrefix >= len(by) || n < 2 || rawSorted(t, by, desc) {
		return nil
	}
	var keys []sortKey
	if refinePrefix > 0 {
		// the ordinal of each row's equal-prefix run leads the keys
		pre := e.sortKeys(t, by[:refinePrefix], nil, 0)
		run := zeroed[uint64](e, scratchRegion, n)
		for i, start := 1, 0; i < n; i++ {
			run[i] = run[i-1]
			if compareKeys(pre, int32(start), int32(i)) != 0 {
				run[i]++
				start = i
			}
		}
		keys = append(keys, sortKey{u: run})
	}
	keys = append(keys, e.sortKeys(t, by, desc, refinePrefix)...)
	if keysSorted(keys, n) {
		return nil
	}
	return e.sortPerm(keys, n)
}

// sortPerm is the sort kernel: the stable permutation that orders n rows
// by keys, in scratch memory — radix over uint64 keys, a comparison sort
// for string keys or small inputs — or nil when a radix pass observes a
// cancelled or over-budget execution.
func (e *Exec) sortPerm(keys []sortKey, n int) []int32 {
	idx := identity(e, n)
	if n < radixMin || slices.ContainsFunc(keys, func(k sortKey) bool { return k.u == nil }) {
		slices.SortFunc(idx, func(a, b int32) int {
			if r := compareKeys(keys, a, b); r != 0 {
				return r
			}
			return cmp.Compare(a, b) // the row index as tie-break: stability for free
		})
		return idx
	}
	// LSD over the key columns, last column first; every pass is stable
	tmp := dirty[int32](e, scratchRegion, n)
	for k := len(keys) - 1; k >= 0 && idx != nil; k-- {
		idx, tmp = e.radixSort(keys[k].u, idx, tmp)
	}
	return idx
}

// rawCol is a column the presorted check reads in place: the (container,
// pre) payload vectors of a uniform node column or, with hi nil, the
// int64 payload of a uniform xs:integer column.
type rawCol struct {
	hi []int32
	lo []int64
}

// rawSorted is the presorted check on the raw column vectors, before any
// key is extracted: it reports true only when every sort column is a
// uniform xs:integer or node column — the iter/pos/item
// columns of path steps, which order by their payload vectors exactly as
// their extracted keys do (a container's attribute rows are in document
// order) — and the rows are in order. On false the caller takes the key
// route, which decides everything else.
func rawSorted(t *Table, by []string, desc []bool) bool {
	cols := make([]rawCol, len(by))
	for k, name := range by {
		c := t.Col(name)
		tag, uniform := c.Uniform()
		switch {
		case k < len(desc) && desc[k] || !uniform:
			return false
		case tag == xqt.KInt:
			cols[k] = rawCol{lo: c.I}
		case tag == xqt.KNode || tag == xqt.KAttr:
			cols[k] = rawCol{hi: c.Cont, lo: c.I}
		default:
			return false
		}
	}
	for i := 1; i < t.N; i++ {
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
// input, and RunSchedule discards whatever the operator builds from it.
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
// ascending, with the boxed comparator (xqt.SortLess, integers exact
// where their partition of the leading key holds no xs:double).
// Planck's literal-claim verification and optcheck's input synthesis
// share it. It agrees with the executor's keys on every column it
// orders; an element and an attribute compare as out of order.
func CompareRowsOn(t *Table, by []string, i, j int) int {
	return compareRows(colsOf(t, by), i, j)
}

// IsSortedBy reports whether t is sorted on the given columns.
func IsSortedBy(t *Table, by []string) bool {
	cols := colsOf(t, by)
	for i := 1; i < t.N; i++ {
		if compareRows(cols, i-1, i) > 0 {
			return false
		}
	}
	return true
}

func colsOf(t *Table, names []string) []rowCol {
	cols := make([]rowCol, len(names))
	for k, name := range names {
		cols[k] = rowCol{t.Col(name), inexactInts(nil, t, names, k)}
	}
	return cols
}
