package ralg

import (
	"hash/maphash"
	"math/bits"

	"mxq/internal/xqerr"
	"mxq/internal/xqt"
)

// execDistinct keeps the first row of each group of equal By keys — the
// sort keys, so δ and the sorts agree on what is equal: -0 and +0 are one
// value, so is every NaN, and integers are exact where their partition
// holds no xs:double. An input in key order costs one pass; at the first
// row out of order the rows are grouped by hashing (firstOfEach), and
// the rows kept return in input order.
func (e *Exec) execDistinct(n *Distinct, in *Table) *Table {
	keys := e.sortKeys(in, n.By, nil, 0)
	keep, o := dirty[int32](e, scratchRegion, in.N), 0
	for i := 0; i < in.N; i++ {
		if i&8191 == 8191 && e.stopRequested() {
			break // RunSchedule's post-operator checkpoint discards the partial table
		}
		c := -1 // the first row starts a run
		if i > 0 {
			c = compareKeys(keys, int32(i-1), int32(i))
		}
		if c > 0 {
			return e.gather(in, e.firstOfEach(keys, in.N, keep[:0]))
		}
		if c < 0 {
			keep[o] = int32(i)
			o++
		}
	}
	return e.gather(in, keep[:o])
}

// firstOfEach returns, in keep's memory and in row order, the first row
// of each group of equal keys among n unordered rows: an open-addressing
// table of row numbers in scratch memory, probed linearly from the hash
// of a row's keys, finds the row's group by compareKeys.
func (e *Exec) firstOfEach(keys []sortKey, n int, keep []int32) []int32 {
	slots := dirty[int32](e, scratchRegion, 1<<bits.Len(uint(2*n-1))) // a power of two, at most half full
	for i := range slots {
		slots[i] = -1
	}
	mask := uint64(len(slots) - 1)
	for i := range int32(n) {
		if i&8191 == 8191 && e.stopRequested() {
			break // RunSchedule's post-operator checkpoint discards the partial table
		}
		for h := hashKeys(keys, i) & mask; ; h = (h + 1) & mask {
			if r := slots[h]; r < 0 {
				slots[h], keep = i, append(keep, i)
				break
			} else if compareKeys(keys, r, i) == 0 {
				break
			}
		}
	}
	return keep
}

// keySeed seeds the hash of string keys; no output depends on it.
var keySeed = maphash.MakeSeed()

// hashKeys hashes row i's keys: equal keys (compareKeys 0) hash alike.
func hashKeys(keys []sortKey, i int32) uint64 {
	var h uint64
	for k := range keys {
		v := uint64(0)
		if keys[k].u != nil {
			v = keys[k].u[i]
		} else {
			v = maphash.String(keySeed, keys[k].s[i])
		}
		h = (h ^ v) * 0x9e3779b97f4a7c15
		h ^= h >> 32
	}
	return h
}

func (e *Exec) execAggr(n *Aggr, in *Table) (*Table, error) {
	part := in.Ints(n.Part)
	// the argument, cast once: sum/avg add xs:integer rows up from the
	// payload and every other row as xs:double (in place for a double column)
	var arg *ItemVec
	var nums []float64
	switch n.Op {
	case AggSum, AggAvg:
		if arg = in.Col(n.Arg); arg.Tags != nil || arg.Tag != xqt.KInt {
			nums = e.cast(FunNumber, arg).F
		}
	case AggMin, AggMax:
		arg = e.minMaxCast(in.Col(n.Arg))
	}
	pc, vc, err := e.aggregate(n, part, arg, nums)
	if err != nil {
		return nil, err
	}
	return tableOf([]string{n.Part, n.Out}, uniformIntCol(settle(e, pc)), vc), nil
}

// minMaxCast casts an fn:min/max argument into F&O's comparison domain:
// an xs:untypedAtomic row (a node, atomized) becomes xs:double; numbers,
// strings and booleans stay, and a column of only those is read in
// place.
func (e *Exec) minMaxCast(c *ItemVec) *ItemVec {
	groups := tagGroups(e, []*ItemVec{c}, c.Len())
	if groups == nil {
		groups = []tagGroup{{kinds: [2]xqt.Kind{c.Tag}}}
	}
	parts := make([]ItemVec, len(groups))
	for g, grp := range groups {
		parts[g] = uniformRows(e, c, grp.kinds[0], grp.idx)
		switch grp.kinds[0] {
		case xqt.KInt, xqt.KDouble, xqt.KString, xqt.KBool:
		default:
			parts[g] = uniformDoubleCol(e.floats(&parts[g]))
		}
	}
	out := mergeRows(e, parts, groups, c.Len())
	return &out
}

// numberAt reads a number or boolean row as xs:double.
func numberAt(d *ItemVec, i int) float64 {
	if d.KindAt(i) == xqt.KDouble {
		return d.F[i]
	}
	return float64(d.I[i])
}

// aggGroup accumulates one group's aggregate state: pointer-free, so the
// groups live in scratch memory. fn:min/max keep the row of
// the group's extremum so far.
type aggGroup struct {
	part      int64
	cnt       int64
	sumF      float64
	sumI      int64
	allInt    bool  // every row so far is an xs:integer
	row, irow int32 // the extremum so far as xs:double, and as xs:integer while allInt
}

// aggregate aggregates the rows by part, returning one (part, value) row
// per group in first-appearance order. Groups live in one flat slice:
// on clustered input (part non-decreasing, the usual state of an iter
// column) a group is a run and its ordinal is the run's; otherwise a map
// assigns the ordinals. Each aggregate is one loop over the typed vectors
// of its cast argument, polling the stop signal every few thousand rows
// (a stopped aggregation returns nothing; Run surfaces the error). The
// part list is scratch memory, the value vector a column of its exact
// size.
func (e *Exec) aggregate(n *Aggr, part []int64, arg *ItemVec, nums []float64) ([]int64, ItemVec, error) {
	runs, clustered := 0, true
	for i := range part {
		if i == 0 || part[i] != part[i-1] {
			runs++
			clustered = clustered && (i == 0 || part[i] > part[i-1])
		}
	}
	var ordinal map[int64]int32 // unclustered input only
	if !clustered {
		runs, ordinal = 64, make(map[int64]int32, 64)
	}
	groups := dirty[aggGroup](e, scratchRegion, runs)[:0]
	k := 0 // the group of the row at hand
	// newGroup is kept out of lookup, which the accumulation loops inline
	newGroup := func(p int64) {
		k = len(groups)
		groups = append(grown(e, groups, 1), aggGroup{part: p, allInt: true})
		if ordinal != nil {
			e.charge(scratchRegion, 16) // the entry grows a Go map
			ordinal[p] = int32(k)
		}
	}
	lookup := func(p int64) *aggGroup {
		if k = len(groups) - 1; k < 0 || groups[k].part != p {
			o, seen := ordinal[p]
			if k = int(o); !seen {
				newGroup(p)
			}
		}
		groups[k].cnt++
		return &groups[k]
	}
	isMax := n.Op == AggMax
	// one kernel dispatch and one poll per block of rows
	for blo := 0; blo < len(part); blo += 8192 {
		if blo > 0 && e.stopRequested() {
			return nil, ItemVec{}, nil
		}
		bhi := min(blo+8192, len(part))
		switch n.Op {
		case AggCount:
			for i := blo; i < bhi; i++ {
				lookup(part[i])
			}
		case AggSum, AggAvg:
			for i := blo; i < bhi; i++ {
				g := lookup(part[i])
				if arg.KindAt(i) == xqt.KInt {
					g.sumI += arg.I[i]
					g.sumF += float64(arg.I[i])
				} else {
					g.allInt = false
					g.sumF += nums[i]
				}
			}
		default: // AggMin, AggMax: a group keeps its extremum's row
			for i := blo; i < bhi; i++ {
				g := lookup(part[i])
				if g.allInt = g.allInt && arg.KindAt(i) == xqt.KInt; g.cnt == 1 {
					g.row, g.irow = int32(i), int32(i)
					continue
				}
				if g.allInt && (isMax && arg.I[i] > arg.I[g.irow] || !isMax && arg.I[i] < arg.I[g.irow]) {
					g.irow = int32(i)
				}
				// strings compare as strings, numbers and booleans as
				// xs:double; NaN wins, and a tie keeps the earlier row j
				j := int(g.row)
				if arg.Tags != nil && ((arg.Tags[i] == xqt.KString) != (arg.Tags[j] == xqt.KString) ||
					(arg.Tags[i] == xqt.KBool) != (arg.Tags[j] == xqt.KBool)) {
					return nil, ItemVec{}, xqerr.Newf("FORG0006", "fn:min/fn:max over %s and %s values", arg.Tags[j], arg.Tags[i])
				}
				if arg.KindAt(i) == xqt.KString {
					if !(isMax && arg.S[i] > arg.S[j] || !isMax && arg.S[i] < arg.S[j]) {
						continue
					}
				} else if a, b := numberAt(arg, i), numberAt(arg, j); !(isMax && a > b || !isMax && a < b || a != a && b == b) {
					continue
				}
				g.row = int32(i)
			}
		}
	}
	pc := dirty[int64](e, scratchRegion, len(groups))
	for i := range groups {
		pc[i] = groups[i].part
	}
	ints := func(of func(g *aggGroup) int64) ItemVec {
		v := e.uniformVec(xqt.KInt, len(groups))
		for i := range groups {
			v.I[i] = of(&groups[i])
		}
		return v
	}
	floats := func(of func(g *aggGroup) float64) ItemVec {
		v := e.uniformVec(xqt.KDouble, len(groups))
		for i := range groups {
			v.F[i] = of(&groups[i])
		}
		return v
	}
	switch {
	case n.Op == AggCount:
		return pc, ints(func(g *aggGroup) int64 { return g.cnt }), nil
	case n.Op == AggAvg:
		return pc, floats(func(g *aggGroup) float64 { return g.sumF / float64(g.cnt) }), nil
	case n.Op == AggSum && arg.Tags == nil: // every sum is an xs:integer, or none is
		if arg.Tag == xqt.KInt {
			return pc, ints(func(g *aggGroup) int64 { return g.sumI }), nil
		}
		return pc, floats(func(g *aggGroup) float64 { return g.sumF }), nil
	case n.Op == AggSum: // a sum is an xs:integer while every addend was one
		e.charge(scratchRegion, itemBytes*int64(len(groups)))
		sums := make([]xqt.Item, len(groups))
		for i, g := range groups {
			if sums[i] = xqt.Double(g.sumF); g.allInt {
				sums[i] = xqt.Int(g.sumI)
			}
		}
		return pc, itemVecOf(e, sums), nil
	}
	// a group of xs:integer rows only compares them exactly
	rows := dirty[int32](e, scratchRegion, len(groups))
	for i, g := range groups {
		if rows[i] = g.row; g.allInt {
			rows[i] = g.irow
		}
	}
	return pc, arg.gatherIn(e, outRegion, rows), nil
}

func (e *Exec) execEBV(n *EBV, in *Table) (*Table, error) {
	part := in.Ints(n.Part)
	items := in.Col(n.Item)
	// every row's own effective boolean value (a node's is true); only a
	// group's first row is read
	rowEBV, err := e.funCol(FunEbvAtom, []*ItemVec{items}, in.N)
	if err != nil {
		return nil, err
	}
	var pos []int64
	if n.Pos != "" {
		pos = in.Ints(n.Pos)
	}
	pc, o := dirty[int64](e, scratchRegion, len(part)), 0
	for i, groups := 0, 0; i < len(part); groups++ {
		if groups&8191 == 8191 && e.stopRequested() {
			break // RunSchedule's post-operator checkpoint discards the partial table
		}
		j := i
		for j < len(part) && part[j] == part[i] {
			j++
		}
		k := items.KindAt(i)
		if j-i > 1 && k != xqt.KNode && k != xqt.KAttr {
			return nil, xqerr.Newf("FORG0006", "effective boolean value of a sequence of %d atomic values", j-i)
		}
		holds := rowEBV.I[i] != 0
		if pos != nil && j-i == 1 && (k == xqt.KInt || k == xqt.KDouble) {
			holds = xqt.Compare(items.At(i), xqt.Int(pos[i]), xqt.CmpEq)
		}
		if holds {
			pc[o] = part[i]
			o++
		}
		i = j
	}
	return tableOf([]string{n.Part}, uniformIntCol(settle(e, pc[:o]))), nil
}
