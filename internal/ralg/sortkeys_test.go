package ralg

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"mxq/internal/xqerr"
	"mxq/internal/xqt"
)

// refCompareRows is the comparator the sort ran on before the typed
// kernel: one boxed xqt.Item per comparison, items via xqt.SortLess.
func refCompareRows(by []*Col, desc []bool, i, j int32) int {
	for k, c := range by {
		var r int
		switch c.Kind {
		case KInt:
			a, b := c.Int[i], c.Int[j]
			switch {
			case a < b:
				r = -1
			case a > b:
				r = 1
			}
		case KBool:
			a, b := c.Bool[i], c.Bool[j]
			switch {
			case !a && b:
				r = -1
			case a && !b:
				r = 1
			}
		default:
			a, b := c.Item.At(int(i)), c.Item.At(int(j))
			switch {
			case xqt.SortLess(a, b):
				r = -1
			case xqt.SortLess(b, a):
				r = 1
			}
		}
		if r != 0 {
			if desc != nil && desc[k] {
				return -r
			}
			return r
		}
	}
	return 0
}

// refSortIdx is the comparator sort SortIdx replaced (sort.SliceStable
// over the row indexes, refine mode run by run): the reference the
// kernel must reproduce permutation for permutation.
func refSortIdx(t *Table, by []string, desc []bool, refinePrefix int) []int32 {
	cols := colsOf(t, by)
	idx := identity(nil, t.N)
	if refinePrefix >= len(by) {
		return idx
	}
	if refinePrefix == 0 {
		sort.SliceStable(idx, func(a, b int) bool {
			return refCompareRows(cols, desc, idx[a], idx[b]) < 0
		})
		return idx
	}
	prefix, suffix := cols[:refinePrefix], cols[refinePrefix:]
	var sufDesc []bool
	if desc != nil {
		sufDesc = desc[refinePrefix:]
	}
	for start := 0; start < t.N; {
		end := start + 1
		for end < t.N && refCompareRows(prefix, nil, int32(start), int32(end)) == 0 {
			end++
		}
		run := idx[start:end]
		sort.SliceStable(run, func(a, b int) bool {
			return refCompareRows(suffix, sufDesc, run[a], run[b]) < 0
		})
		start = end
	}
	return idx
}

// sortColumns is one generator per column flavour the kernel
// distinguishes; generic marks the flavours that take the comparator
// path (never reported as presorted).
var sortColumns = []struct {
	name    string
	generic bool
	gen     func(rng *rand.Rand, n int) Col
}{
	{"int", false, func(rng *rand.Rand, n int) Col {
		vs := make([]int64, n)
		for i := range vs {
			switch rng.Intn(8) {
			case 0:
				vs[i] = math.MinInt64
			case 1:
				vs[i] = math.MaxInt64
			default:
				vs[i] = int64(rng.Intn(9)) - 4
			}
		}
		return Col{Kind: KInt, Int: vs}
	}},
	{"wideint", false, func(rng *rand.Rand, n int) Col {
		vs := make([]int64, n)
		for i := range vs {
			vs[i] = rng.Int63n(1 << 40)
		}
		return Col{Kind: KInt, Int: vs}
	}},
	{"bool", false, func(rng *rand.Rand, n int) Col {
		vs := make([]bool, n)
		for i := range vs {
			vs[i] = rng.Intn(2) == 0
		}
		return Col{Kind: KBool, Bool: vs}
	}},
	{"itemint", false, func(rng *rand.Rand, n int) Col {
		// past 2^53 neighbouring integers collapse to one xs:double
		pick := []int64{0, 1, -1, 7, 1 << 53, 1<<53 + 1, 1<<53 + 2, -(1 << 53) - 1, math.MaxInt64, math.MinInt64}
		return itemCol(n, func() xqt.Item { return xqt.Int(pick[rng.Intn(len(pick))]) })
	}},
	{"itemdouble", false, func(rng *rand.Rand, n int) Col {
		pick := []float64{0, math.Copysign(0, -1), 1, -1, 1.5, math.Inf(1), math.Inf(-1), math.SmallestNonzeroFloat64, -math.MaxFloat64, 1e300}
		return itemCol(n, func() xqt.Item { return xqt.Double(pick[rng.Intn(len(pick))]) })
	}},
	{"itemnan", true, func(rng *rand.Rand, n int) Col {
		pick := []float64{0, 1, -1, math.NaN(), 2.5}
		c := itemCol(n, func() xqt.Item { return xqt.Double(pick[rng.Intn(len(pick))]) })
		if n > 0 {
			c.Item.F[rng.Intn(n)] = math.NaN()
		}
		return c
	}},
	{"itembool", false, func(rng *rand.Rand, n int) Col {
		return itemCol(n, func() xqt.Item { return xqt.Bool(rng.Intn(2) == 0) })
	}},
	{"itemstring", false, func(rng *rand.Rand, n int) Col {
		pick := []string{"", "a", "ab", "b", "\x00", "\x00emptyleast", "é", "10", "9"}
		return itemCol(n, func() xqt.Item { return xqt.Str(pick[rng.Intn(len(pick))]) })
	}},
	{"itemuntyped", false, func(rng *rand.Rand, n int) Col {
		pick := []string{"", "a", "ab", "\x00", "zz"}
		return itemCol(n, func() xqt.Item { return xqt.Untyped(pick[rng.Intn(len(pick))]) })
	}},
	{"itememptyleast", false, func(rng *rand.Rand, n int) Col {
		return itemCol(n, func() xqt.Item {
			if rng.Intn(3) == 0 {
				return xqt.EmptyLeast
			}
			return xqt.Untyped([]string{"", "\x00", "a", "b"}[rng.Intn(4)])
		})
	}},
	{"itemnode", false, func(rng *rand.Rand, n int) Col {
		return itemCol(n, func() xqt.Item { return xqt.Node(int32(rng.Intn(3)), int32(rng.Intn(6))) })
	}},
	{"itemattr", false, func(rng *rand.Rand, n int) Col {
		return itemCol(n, func() xqt.Item { return xqt.Attr(int32(rng.Intn(2)), int32(rng.Intn(1<<20))) })
	}},
	{"itemnodeattr", false, func(rng *rand.Rand, n int) Col {
		// an attribute sorts after the element at the same rank
		return itemCol(n, func() xqt.Item {
			if rng.Intn(2) == 0 {
				return xqt.Attr(int32(rng.Intn(2)), int32(rng.Intn(4)))
			}
			return xqt.Node(int32(rng.Intn(2)), int32(rng.Intn(4)))
		})
	}},
	{"itemmixed", true, func(rng *rand.Rand, n int) Col {
		pick := []xqt.Item{xqt.Int(1), xqt.Int(2), xqt.Double(1), xqt.Double(1.5), xqt.Str("a"), xqt.Untyped("a"),
			xqt.Untyped("b"), xqt.Bool(true), xqt.Bool(false), xqt.Node(0, 3), xqt.Attr(0, 3), xqt.EmptyLeast}
		c := itemCol(n, func() xqt.Item { return pick[rng.Intn(len(pick))] })
		if n > 1 { // never uniform by chance
			c.Item = NewItemVec(append([]xqt.Item{xqt.Int(1), xqt.Str("a")}, c.Item.Slice()[2:]...))
		}
		return c
	}},
}

func itemCol(n int, gen func() xqt.Item) Col {
	items := make([]xqt.Item, n)
	for i := range items {
		items[i] = gen()
	}
	return Col{Kind: KItem, Item: NewItemVec(items)}
}

// TestSortIdxMatchesComparatorSort is the property test of the typed
// sort kernel: over random tables of every column flavour it must
// return exactly the permutation of the old comparator sort, and nil
// (keep the input) exactly when a typed input is already in order.
func TestSortIdxMatchesComparatorSort(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	sizes := []int{0, 1, 2, radixMin - 1, radixMin, radixMin + 1, 100, 500, 10000}
	for trial := 0; trial < 400; trial++ {
		n := sizes[trial%len(sizes)]
		if n == 10000 && trial > 120 {
			n = 1000
		}
		ncols := 1 + rng.Intn(4)
		tab := &Table{}
		var by []string
		generic := false
		for k := 0; k < ncols; k++ {
			f := sortColumns[rng.Intn(len(sortColumns))]
			name := fmt.Sprintf("c%d_%s", k, f.name)
			tab.AddCol(name, f.gen(rng, n))
			by = append(by, name)
			generic = generic || f.generic
		}
		tab.N = n
		var desc []bool
		if rng.Intn(2) == 0 {
			desc = make([]bool, ncols)
			for k := range desc {
				desc[k] = rng.Intn(2) == 0
			}
		}
		refine := 0
		if rng.Intn(3) == 0 {
			// a refine sort's input is ascending on the prefix
			refine = 1 + rng.Intn(ncols)
			tab = tab.Gather(refSortIdx(tab, by[:refine], nil, 0))
		}
		arrangement := rng.Intn(4)
		switch {
		case refine > 0:
			arrangement = 0
		case arrangement == 1: // presorted
			tab = tab.Gather(refSortIdx(tab, by, desc, 0))
		case arrangement == 2: // reverse order
			idx := refSortIdx(tab, by, desc, 0)
			slices.Reverse(idx)
			tab = tab.Gather(idx)
		case arrangement == 3: // all rows equal
			tab = tab.Gather(make([]int32, n))
		}
		label := fmt.Sprintf("trial %d: n=%d by=%v desc=%v refine=%d arrangement=%d", trial, n, by, desc, refine, arrangement)

		want := refSortIdx(tab, by, desc, refine)
		e := &Exec{}
		got := e.SortIdx(tab, by, desc, refine)
		ordered := slices.Equal(want, identity(nil, n))
		if got == nil {
			if !ordered {
				t.Fatalf("%s: kernel kept an input the reference reorders", label)
			}
		} else if !slices.Equal(got, want) {
			t.Fatalf("%s: permutation differs from the comparator sort", label)
		}
		if typed := !generic || refine >= ncols || n < 2; ordered && typed && got != nil {
			t.Fatalf("%s: ordered typed input not detected", label)
		}
		// the operator hands an ordered input back as the same *Table (the
		// generic path only finds out by sorting: its identity permutation
		// is not gathered either)
		if out := e.execSort(&Sort{By: by, Desc: desc, RefinePrefix: refine}, tab); (out == tab) != (got == nil || ordered) {
			t.Fatalf("%s: execSort returned same table = %v, kernel nil = %v", label, out == tab, got == nil)
		} else if got != nil && !generic && !TablesEqual(out, tab.Gather(want)) { // TablesEqual has NaN != NaN
			t.Fatalf("%s: execSort output differs", label)
		}
	}
}

// TestSortIdxBudgetAndCancel pins the accounting contract of the
// kernel: an ordered input costs nothing, an unordered one holds its
// key and index buffers until the operator ends, a budget that cannot
// cover them fails the sort, and the radix passes observe a cancelled
// context.
func TestSortIdxBudgetAndCancel(t *testing.T) {
	const n = 20000
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = int64((i * 7919) % n)
	}
	unsorted := intTable("v", vals...)
	sorted := intTable("v", identity64(n)...)

	e := &Exec{Mem: NewMemBudget(1 << 40)}
	if e.SortIdx(sorted, []string{"v"}, nil, 0) != nil || e.Mem.Used() != 0 {
		t.Fatalf("ordered input: idx non-nil or %d bytes charged", e.Mem.Used())
	}
	if e.SortIdx(unsorted, []string{"v"}, nil, 0) == nil {
		t.Fatal("unordered input kept")
	}
	if e.Mem.Used() == 0 {
		t.Fatalf("radix sort of %d rows holds nothing", n)
	}
	if e.resetScratch(); e.Mem.Used() != 0 {
		t.Fatalf("%d bytes still held after the operator ended", e.Mem.Used())
	}
	e.Stats = ExecStats{}
	e.execSort(&Sort{By: []string{"v"}}, sorted)
	e.execSort(&Sort{By: []string{"v"}}, unsorted)
	if s := e.Stats; s.FullSorts != 2 || s.SortedRows != 2*n || s.SortsPresorted != 1 || s.RowsPresorted != n {
		t.Fatalf("sort counters: %+v", s)
	}

	tight := NewExec(nil, nil)
	tight.Mem = NewMemBudget(1024)
	srt := &Sort{By: []string{"v"}}
	srt.SetInput(0, &Lit{Tab: unsorted})
	if _, err := tight.Run(srt); !xqerr.IsResourceLimit(err) {
		t.Fatalf("over-budget sort: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	stopped := &Exec{Ctx: ctx, done: ctx.Done()}
	if stopped.SortIdx(unsorted, []string{"v"}, nil, 0) != nil {
		t.Fatal("cancelled radix sort ran to completion")
	}
}

func identity64(n int) []int64 {
	vs := make([]int64, n)
	for i := range vs {
		vs[i] = int64(i)
	}
	return vs
}

// TestRowNumStreamCounters covers the three RankStream numbering paths
// of the serial engine: clustered groups, narrow-range group ids (slice
// counters) and sparse ids (map counters).
func TestRowNumStreamCounters(t *testing.T) {
	for name, part := range map[string][]int64{
		"clustered": {1, 1, 2, 2, 2, 7},
		"narrow":    {3, 1, 3, 2, 1, 3},
		"sparse":    {math.MaxInt64, math.MinInt64, 5, math.MaxInt64, 5, 5},
		"negative":  {-2, -1, -2, -1, -2, -2},
	} {
		in := intTable("g", part...)
		in.AddCol("pos", Col{Kind: KInt, Int: identity64(len(part))})
		rn := &RowNum{Out: "r", OrderBy: []string{"pos"}, Part: "g", Mode: RankStream}
		rn.SetInput(0, &Lit{Tab: in})
		got := run(t, rn).Ints("r")
		seen := map[int64]int64{}
		for i, p := range part {
			seen[p]++
			if got[i] != seen[p] {
				t.Fatalf("%s: ranks %v for groups %v", name, got, part)
			}
		}
	}
}

// existRef is the definition of the existential join: every (iter1,
// iter2) with some pair of rows xqt.Compare accepts, deduplicated, in
// [iter1, iter2] order.
func existRef(l, r *Table, op xqt.CmpOp) [][2]int64 {
	var out [][2]int64
	seen := map[[2]int64]bool{}
	li, ri := l.Items("item"), r.Items("item")
	for i, a := range li {
		for j, b := range ri {
			p := [2]int64{l.Ints("iter")[i], r.Ints("iter")[j]}
			if !seen[p] && xqt.Compare(a, b, op) {
				seen[p] = true
				out = append(out, p)
			}
		}
	}
	slices.SortFunc(out, func(a, b [2]int64) int { return slices.Compare(a[:], b[:]) })
	return out
}

// TestExistJoinPromotionMatchesCompare checks the (left tag, right tag)
// promotion table against per-pair xqt.Compare: all six operators, every
// pairing of untyped, string, integer, double and boolean columns (and
// mixed-tag ones), non-numeric strings, "", padded numbers, NaN, ±0 and
// iterations with several rows.
func TestExistJoinPromotionMatchesCompare(t *testing.T) {
	str := []string{"1", " 2 ", "abc", "", "true", "false", "0", "10", "1.0", "-0", "NaN", "2"}
	flavours := map[string]func(rng *rand.Rand) xqt.Item{
		"untyped": func(rng *rand.Rand) xqt.Item { return xqt.Untyped(str[rng.Intn(len(str))]) },
		"string":  func(rng *rand.Rand) xqt.Item { return xqt.Str(str[rng.Intn(len(str))]) },
		"int":     func(rng *rand.Rand) xqt.Item { return xqt.Int(int64(rng.Intn(5)) - 1) },
		"double": func(rng *rand.Rand) xqt.Item {
			return xqt.Double([]float64{0, math.Copysign(0, -1), 1, 1.5, 2, 10, math.NaN(), math.Inf(1)}[rng.Intn(8)])
		},
		"bool": func(rng *rand.Rand) xqt.Item { return xqt.Bool(rng.Intn(2) == 0) },
	}
	names := []string{"untyped", "string", "int", "double", "bool", "mixed"}
	flavours["mixed"] = func(rng *rand.Rand) xqt.Item { return flavours[names[rng.Intn(5)]](rng) }
	rng := rand.New(rand.NewSource(3))
	mk := func(n int, gen func(*rand.Rand) xqt.Item) *Table {
		iters, poss, items := make([]int64, n), make([]int64, n), make([]xqt.Item, n)
		iter := int64(1)
		for i := range items {
			iters[i], poss[i], items[i] = iter, int64(i), gen(rng)
			if rng.Intn(3) > 0 {
				iter++
			}
		}
		return seqTable(iters, poss, items)
	}
	for _, ln := range names {
		for _, rn := range names {
			for _, size := range []int{6, 90} { // 90 rows span two words of the theta sweep's bitmap
				l, r := mk(size, flavours[ln]), mk(size, flavours[rn])
				for op := xqt.CmpEq; op <= xqt.CmpGe; op++ {
					want := existRef(l, r, op)
					j := &ExistJoin{Cmp: op, LIter: "iter", LItem: "item", RIter: "iter", RItem: "item", Out1: "a", Out2: "b"}
					j.SetInput(0, &Lit{Tab: l})
					j.SetInput(1, &Lit{Tab: r})
					out := run(t, j)
					got := make([][2]int64, out.N)
					for i := range got {
						got[i] = [2]int64{out.Ints("a")[i], out.Ints("b")[i]}
					}
					if !slices.Equal(got, want) {
						t.Fatalf("%s %v %s (n=%d): %d pairs, want %d\ngot  %v\nwant %v",
							ln, op, rn, size, len(got), len(want), got, want)
					}
				}
			}
		}
	}
}

// TestExistJoinUnsortedIters: inputs that break the [iter, pos] contract
// still yield deduplicated pairs in [iter1, iter2] order.
func TestExistJoinUnsortedIters(t *testing.T) {
	l := seqTable([]int64{3, 1, 3}, []int64{1, 1, 2}, []xqt.Item{xqt.Int(5), xqt.Int(9), xqt.Int(1)})
	r := seqTable([]int64{2, 1}, []int64{1, 1}, []xqt.Item{xqt.Int(4), xqt.Int(0)})
	for op := xqt.CmpEq; op <= xqt.CmpGe; op++ {
		j := &ExistJoin{Cmp: op, LIter: "iter", LItem: "item", RIter: "iter", RItem: "item", Out1: "a", Out2: "b"}
		j.SetInput(0, &Lit{Tab: l})
		j.SetInput(1, &Lit{Tab: r})
		out := run(t, j)
		got := make([][2]int64, out.N)
		for i := range got {
			got[i] = [2]int64{out.Ints("a")[i], out.Ints("b")[i]}
		}
		if want := existRef(l, r, op); !slices.Equal(got, want) {
			t.Fatalf("%v: got %v, want %v", op, got, want)
		}
	}
}

// TestSortIdxPresortedExtractsNoKeys: the sort every path step plans —
// ascending on an int column and a uniform node column — finds an
// ordered input on the raw vectors and allocates no key buffer; the same
// columns out of order, or with a descending column, still sort.
func TestSortIdxPresortedExtractsNoKeys(t *testing.T) {
	const n = 5000
	tab := NewTable([]string{"iter", "item"}, []ColKind{KInt, KItem})
	for i := 0; i < n; i++ {
		tab.Col("iter").Int = append(tab.Col("iter").Int, int64(i/3))
		tab.Col("item").Item.Append(xqt.Node(int32(i/2000), int32(i%2000)))
	}
	tab.N = n
	e := &Exec{}
	for _, by := range [][]string{{"iter", "item"}, {"item", "iter"}, {"item"}} {
		allocs := testing.AllocsPerRun(10, func() {
			if e.SortIdx(tab, by, nil, 0) != nil {
				t.Fatalf("by %v: ordered input not detected", by)
			}
		})
		if allocs > 1 { // the column list
			t.Errorf("by %v: %v allocations on an ordered input, want <= 1", by, allocs)
		}
	}
	if idx := e.SortIdx(tab, []string{"item"}, []bool{true}, 0); idx == nil || idx[0] != n-1 {
		t.Errorf("descending sort of an ascending column kept the input")
	}
	rev := tab.Gather(e.SortIdx(tab, []string{"item"}, []bool{true}, 0))
	if idx := e.SortIdx(rev, []string{"iter", "item"}, nil, 0); idx == nil || !TablesEqual(rev.Gather(idx), tab) {
		t.Errorf("reversed input not sorted back")
	}
}
