package ralg

import (
	"math"

	"mxq/internal/xqerr"
	"mxq/internal/xqt"
)

func (e *Exec) execDistinct(n *Distinct, in *Table) *Table {
	cols := make([]*Col, len(n.By))
	for i, name := range n.By {
		cols[i] = in.Col(name)
	}
	idx, o := dirty[int32](e, scratchRegion, in.N), 0
	if n.Merge {
		for i := 0; i < in.N; i++ {
			if i&8191 == 8191 && e.stopRequested() {
				break // Run's post-operator checkpoint discards the partial table
			}
			if i == 0 || compareRows(cols, int32(i-1), int32(i)) != 0 {
				idx[o] = int32(i)
				o++
			}
		}
	} else {
		encs := make([]keyEnc, len(cols))
		for i, c := range cols {
			encs[i] = colKeyEnc(c)
		}
		e.charge(scratchRegion, 24*int64(in.N)) // the dedup set, sized up front
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
				idx[o] = int32(i)
				o++
			}
		}
	}
	return e.gather(in, idx[:o])
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
	// chunks end at group boundaries, so every group is accumulated by
	// one chunk in row order (floating-point sums do not depend on the
	// chunk count)
	rs := e.groupChunks(part)
	pcs := make([][]int64, len(rs))
	vcs := make([]ItemVec, len(rs))
	e.forChunks(rs, func(k, lo, hi int) { pcs[k], vcs[k] = e.aggrRange(n, part, arg, lo, hi) })
	out := NewTable([]string{n.Part, n.Out}, []ColKind{KInt, KItem})
	out.Col(n.Part).Int = settle(e, pcs...)
	if out.Col(n.Out).Item = vcs[0]; len(vcs) > 1 {
		out.Col(n.Out).Item = unionVecs(e, vcs)
	}
	out.N = out.Col(n.Part).Len()
	return out, nil
}

// aggGroup accumulates one group's aggregate state: pointer-free, so the
// groups of a chunk live in scratch memory. The minimum or maximum of a
// uniform xs:integer or xs:double column is kept in sumI or sumF.
type aggGroup struct {
	part   int64
	cnt    int64
	sumF   float64
	sumI   int64
	allInt bool
}

// aggrRange aggregates rows [lo, hi) by part, returning one (part, value)
// row per group in first-appearance order. Groups live in one flat slice:
// on clustered input (part non-decreasing, the usual state of an iter
// column) a group is a run and its ordinal is the run's; otherwise a map
// assigns the ordinals. When the argument column has a
// uniform numeric tag, the accumulation loops run over the raw
// int64/float64 payload vectors — one kind dispatch per chunk instead of
// one per row (the accumulation order, and therefore every
// floating-point result bit, is unchanged). The execution's stop signal
// is polled every few thousand rows; when it fires the partial result is
// dropped (the caller's Run surfaces the context error). The part list
// is scratch memory, the value vector a column of its exact size.
func (e *Exec) aggrRange(n *Aggr, part []int64, arg *ItemVec, lo, hi int) ([]int64, ItemVec) {
	runs, clustered := 0, true
	for i := lo; i < hi; i++ {
		if i == lo || part[i] != part[i-1] {
			runs++
			clustered = clustered && (i == lo || part[i] > part[i-1])
		}
	}
	var ordinal map[int64]int32 // unclustered input only
	var heapBytes int64         // what a new group is about to add to ordinal and mm, which grow on the Go heap
	if !clustered {
		runs, ordinal, heapBytes = 64, make(map[int64]int32, 64), 16
	}
	tag := xqt.KUntyped
	uniform := false
	if arg != nil {
		tag, uniform = arg.Uniform()
	}
	groups := dirty[aggGroup](e, scratchRegion, runs)[:0]
	var mm []xqt.Item // per group, where the column is not uniformly numeric: the extremum so far, or room for the sum
	if n.Op != AggCount && n.Op != AggAvg && !(uniform && (tag == xqt.KInt || tag == xqt.KDouble)) {
		mm, heapBytes = []xqt.Item{}, heapBytes+itemBytes
	}
	k := 0 // the group of the row at hand
	// newGroup is kept out of lookup, which the accumulation loops inline
	newGroup := func(p int64) {
		k = len(groups)
		groups = append(grown(e, groups, 1), aggGroup{part: p, allInt: true})
		if heapBytes != 0 {
			e.charge(scratchRegion, heapBytes)
		}
		if mm != nil {
			mm = append(mm, xqt.Item{})
		}
		if ordinal != nil {
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
	// one kernel dispatch and one poll per block of rows
	for blo := lo; blo < hi; blo += 8192 {
		if blo > lo && e.stopRequested() {
			return nil, ItemVec{}
		}
		bhi := min(blo+8192, hi)
		switch {
		case n.Op == AggCount:
			for i := blo; i < bhi; i++ {
				lookup(part[i])
			}
		case uniform && tag == xqt.KInt && (n.Op == AggSum || n.Op == AggAvg):
			for i := blo; i < bhi; i++ {
				g := lookup(part[i])
				g.sumI += arg.I[i]
				g.sumF += float64(arg.I[i])
			}
		case uniform && tag == xqt.KDouble && (n.Op == AggSum || n.Op == AggAvg):
			for i := blo; i < bhi; i++ {
				g := lookup(part[i])
				g.allInt = false
				g.sumF += arg.F[i]
			}
		case uniform && tag == xqt.KInt && (n.Op == AggMin || n.Op == AggMax):
			// ties keep the earlier row, and the comparison is the xs:double
			// order xqt.SortLess applies to numeric items
			max := n.Op == AggMax
			for i := blo; i < bhi; i++ {
				g := lookup(part[i])
				v := arg.I[i]
				if g.cnt == 1 || (max && float64(g.sumI) < float64(v)) || (!max && float64(v) < float64(g.sumI)) {
					g.sumI = v
				}
			}
		case uniform && tag == xqt.KDouble && (n.Op == AggMin || n.Op == AggMax):
			max := n.Op == AggMax
			for i := blo; i < bhi; i++ {
				g := lookup(part[i])
				v := arg.F[i]
				if g.cnt == 1 || (max && g.sumF < v) || (!max && v < g.sumF) {
					g.sumF = v
				}
			}
		default:
			for i := blo; i < bhi; i++ {
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
					if g.cnt == 1 || xqt.SortLess(arg.At(i), mm[k]) {
						mm[k] = arg.At(i)
					}
				case AggMax:
					if g.cnt == 1 || xqt.SortLess(mm[k], arg.At(i)) {
						mm[k] = arg.At(i)
					}
				}
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
		return pc, ints(func(g *aggGroup) int64 { return g.cnt })
	case n.Op == AggAvg:
		return pc, floats(func(g *aggGroup) float64 { return g.sumF / float64(g.cnt) })
	case uniform && tag == xqt.KInt: // the sum, minimum or maximum of xs:integers
		return pc, ints(func(g *aggGroup) int64 { return g.sumI })
	case uniform && tag == xqt.KDouble:
		return pc, floats(func(g *aggGroup) float64 { return g.sumF })
	}
	if n.Op == AggSum { // else mm holds the extrema
		for i, g := range groups {
			if mm[i] = xqt.Double(g.sumF); g.allInt { // a sum is an xs:integer while every addend was one
				mm[i] = xqt.Int(g.sumI)
			}
		}
	}
	return pc, itemVecOf(e, mm)
}

func (e *Exec) execEBV(n *EBV, in *Table) (*Table, error) {
	part := in.Ints(n.Part)
	items := in.ItemVec(n.Item)
	// every row's own effective boolean value (a node's is true); only a
	// group's first row is read
	rowEBV, err := e.funCol(FunEbvAtom, []*Col{in.Col(n.Item)}, in.N)
	if err != nil {
		return nil, err
	}
	out := NewTable([]string{n.Part, n.Out}, []ColKind{KInt, KBool})
	pc, bc := dirty[int64](e, scratchRegion, len(part)), dirty[bool](e, scratchRegion, len(part))
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
		if k := items.KindAt(i); j-i > 1 && k != xqt.KNode && k != xqt.KAttr {
			return nil, xqerr.Newf("FORG0006", "effective boolean value of a sequence of %d atomic values", j-i)
		}
		pc[groups-1], bc[groups-1] = part[i], rowEBV.Bool[i]
		i = j
	}
	out.N = groups
	out.Col(n.Part).Int, out.Col(n.Out).Bool = settle(e, pc[:groups]), settle(e, bc[:groups])
	return out, nil
}
