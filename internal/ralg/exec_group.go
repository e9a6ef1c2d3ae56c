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
	return e.gather(in, idx)
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
	stop := e.stopFunc()
	e.forChunks(rs, func(k, lo, hi int) {
		pc, vc := aggrRange(n, part, arg, lo, hi, stop)
		pcs[k], vcs[k] = pc, NewItemVec(vc)
	})
	out := NewTable([]string{n.Part, n.Out}, []ColKind{KInt, KItem})
	out.Col(n.Part).Int = concat(pcs)
	out.Col(n.Out).Item = concatItemVecs(vcs)
	out.N = out.Col(n.Part).Len()
	e.chargeTable(out)
	return out, nil
}

// aggGroup accumulates one group's aggregate state.
type aggGroup struct {
	part   int64
	cnt    int64
	sumF   float64
	sumI   int64
	allInt bool
	minmax xqt.Item
}

// aggrRange aggregates rows [lo, hi) by part, returning one (part, value)
// row per group in first-appearance order. Groups live in one flat slice:
// on clustered input (part non-decreasing, the usual state of an iter
// column) a group is a run and its ordinal is the run's; otherwise a map
// assigns the ordinals. When the argument column has a
// uniform numeric tag, the accumulation loops run over the raw
// int64/float64 payload vectors — one kind dispatch per chunk instead of
// one per row (the accumulation order, and therefore every
// floating-point result bit, is unchanged). A non-nil stop is polled
// every few thousand rows; when it fires the partial result is dropped
// (the caller's Run surfaces the context error).
func aggrRange(n *Aggr, part []int64, arg *ItemVec, lo, hi int, stop func() bool) ([]int64, []xqt.Item) {
	runs, clustered := 0, true
	for i := lo; i < hi; i++ {
		if i == lo || part[i] != part[i-1] {
			runs++
			clustered = clustered && (i == lo || part[i] > part[i-1])
		}
	}
	var ordinal map[int64]int32 // unclustered input only
	if !clustered {
		runs, ordinal = 64, make(map[int64]int32, 64)
	}
	groups := make([]aggGroup, 0, runs)
	lookup := func(p int64) *aggGroup {
		k := len(groups) - 1
		if k < 0 || groups[k].part != p {
			o, seen := ordinal[p]
			if k = int(o); !seen {
				k = len(groups)
				groups = append(groups, aggGroup{part: p, allInt: true})
				if ordinal != nil {
					ordinal[p] = int32(k)
				}
			}
		}
		groups[k].cnt++
		return &groups[k]
	}
	tag := xqt.KUntyped
	uniform := false
	if arg != nil {
		tag, uniform = arg.Uniform()
	}
	// one kernel dispatch and one poll per block of rows
	for blo := lo; blo < hi; blo += 8192 {
		if blo > lo && stop != nil && stop() {
			return nil, nil
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
				if g.cnt == 1 ||
					(max && float64(g.minmax.I) < float64(v)) ||
					(!max && float64(v) < float64(g.minmax.I)) {
					g.minmax = xqt.Int(v)
				}
			}
		case uniform && tag == xqt.KDouble && (n.Op == AggMin || n.Op == AggMax):
			max := n.Op == AggMax
			for i := blo; i < bhi; i++ {
				g := lookup(part[i])
				v := arg.F[i]
				if g.cnt == 1 || (max && g.minmax.F < v) || (!max && v < g.minmax.F) {
					g.minmax = xqt.Double(v)
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
	}
	pc := make([]int64, len(groups))
	vc := make([]xqt.Item, len(groups))
	for i := range groups {
		g := &groups[i]
		pc[i] = g.part
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
		if k := items.KindAt(i); j-i > 1 && k != xqt.KNode && k != xqt.KAttr {
			return nil, xqerr.Newf("FORG0006", "effective boolean value of a sequence of %d atomic values", j-i)
		}
		pc.Int = append(pc.Int, part[i])
		bc.Bool = append(bc.Bool, rowEBV.Bool[i])
		i = j
	}
	out.N = pc.Len()
	e.chargeTable(out)
	return out, nil
}
