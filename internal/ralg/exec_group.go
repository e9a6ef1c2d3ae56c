package ralg

import (
	"hash/maphash"

	"mxq/internal/xqerr"
	"mxq/internal/xqt"
)

// execDistinct keeps the first row of each group of equal By keys — the
// sort keys, so δ and the sorts agree on what is equal: -0 and +0 are one
// value, so is every NaN, and integers are exact where their partition
// holds no xs:double — in input order. groupRows finds the groups: a lone
// integer-like key is its own code, other keys hash by hashKeys.
func (e *Exec) execDistinct(n *Distinct, in *Table) *Table {
	keys := e.sortKeys(in, n.By, nil, 0)
	codes, same := []uint64(nil), func(r, i int32) bool { return compareKeys(keys, r, i) == 0 }
	if len(keys) == 1 && keys[0].u != nil {
		codes, same = keys[0].u, nil
	} else {
		codes = dirty[uint64](e, scratchRegion, in.N)
		for i := range codes {
			codes[i] = hashKeys(keys, int32(i))
		}
	}
	gid, _ := groupRows(e, codes, same)
	keep := dirty[int32](e, scratchRegion, in.N)[:0]
	for i, g := range gid {
		if int(g) == len(keep) {
			keep = append(keep, int32(i))
		}
	}
	return e.gather(in, keep)
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
// groups live in scratch memory. fn:min/max keep their extremum's row.
type aggGroup struct {
	part      int64
	cnt       int64
	sumF      float64
	sumI      int64
	allInt    bool  // every row so far is an xs:integer
	row, irow int32 // the extremum so far as xs:double, and as xs:integer while allInt
}

// aggregate aggregates the rows by part, returning one (part, value) row
// per group in first-appearance order (groupRows numbers them; on
// clustered input, the usual state of an iter column, a group is a run),
// in one flat slice. Each aggregate is one loop over the typed vectors of
// its cast argument, polling the stop signal every few thousand rows (a
// stopped aggregation returns nothing; Run surfaces the error). The part
// list is scratch memory, the value vector a column of its exact size.
func (e *Exec) aggregate(n *Aggr, part []int64, arg *ItemVec, nums []float64) ([]int64, ItemVec, error) {
	gid, ngroups := groupRows(e, part, nil)
	if e.stopRequested() {
		return nil, ItemVec{}, nil
	}
	groups := dirty[aggGroup](e, scratchRegion, ngroups)[:0]
	lookup := func(i int) *aggGroup {
		k := gid[i]
		if int(k) == len(groups) {
			groups = append(groups, aggGroup{part: part[i], allInt: true})
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
				lookup(i)
			}
		case AggSum, AggAvg:
			for i := blo; i < bhi; i++ {
				g := lookup(i)
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
				g := lookup(i)
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
