package ralg

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"mxq/internal/naive"
	"mxq/internal/store"
	"mxq/internal/xqerr"
	"mxq/internal/xqt"
)

// sortDoc is the document the node flavours draw from, loaded twice (two
// containers): elements with and without attributes, nested, and text.
const sortDoc = `<r a="1" b="2"><x c="3">t<y d="4"/></x><z/><w e="5" f="6"><v g="7"/>u</w></r>`

// sortWorld holds the containers the node flavours reference, their tree
// nodes and attributes, and each one's position in the naive oracle's
// document order: (the node's or owner's Ord, attribute index + 1).
type sortWorld struct {
	pool         *store.Pool
	nodes, attrs []xqt.Item
	pos          map[xqt.Item][2]int64
}

func newSortWorld(t *testing.T) *sortWorld {
	t.Helper()
	w := &sortWorld{pool: store.NewPool(), pos: map[xqt.Item][2]int64{}}
	var ord int64
	for k := range 2 {
		c, err := store.Shred(fmt.Sprintf("s%d", k), strings.NewReader(sortDoc), false)
		if err != nil {
			t.Fatal(err)
		}
		w.pool.Register(c)
		pre := int32(0)
		var walk func(n *naive.Node)
		walk = func(n *naive.Node) {
			it := xqt.Node(c.ID, pre)
			w.nodes, w.pos[it] = append(w.nodes, it), [2]int64{n.Ord, 0}
			if n.Kind == store.KindElem {
				ac, lo, _ := c.Attrs(pre)
				for i := range n.Attrs {
					a := xqt.Attr(ac.ID, lo+int32(i))
					w.attrs, w.pos[a] = append(w.attrs, a), [2]int64{n.Ord, int64(i) + 1}
				}
			}
			pre++
			for _, ch := range n.Children {
				walk(ch)
			}
		}
		walk(naive.FromContainer(c, &ord))
	}
	return w
}

// less is the reference item order: xqt.SortLess, with its NaN rank, for
// atoms, and for two nodes the container, then the naive oracle's
// document order (SortLess's node clause holds for one node kind only).
func (w *sortWorld) less(a, b xqt.Item) bool {
	if !a.IsNode() || !b.IsNode() {
		return xqt.SortLess(a, b)
	}
	pa, pb := w.pos[a], w.pos[b]
	return a.Cont < b.Cont || a.Cont == b.Cont && (pa[0] < pb[0] || pa[0] == pb[0] && pa[1] < pb[1])
}

// refInexact is the reference partition rule over boxed items: the
// integers of row i of column by[k] compare as xs:double when a row of
// its partition is an xs:double. A partition is one value of the leading
// column by[0] when every row of that column is an xs:integer; otherwise,
// and for by[0] itself, the whole column is one.
func refInexact(t *Table, by []string, k int) func(i int) bool {
	part := func(int) xqt.Item { return xqt.Item{} }
	if lead := t.Col(by[0]).Slice(); k > 0 && !slices.ContainsFunc(lead, func(it xqt.Item) bool { return it.K != xqt.KInt }) {
		part = func(i int) xqt.Item { return lead[i] }
	}
	withDouble := map[xqt.Item]bool{}
	for i, it := range t.Col(by[k]).Slice() {
		if it.K == xqt.KDouble {
			withDouble[part(i)] = true
		}
	}
	return func(i int) bool { return withDouble[part(i)] }
}

// refCompareRows is the reference comparator: one boxed xqt.Item per
// comparison, items ordered by less, but integers by value where their
// partition holds no xs:double (refInexact).
func refCompareRows(by []rowCol, desc []bool, i, j int32, less func(a, b xqt.Item) bool) int {
	for k, c := range by {
		var r int
		a, b := c.v.At(int(i)), c.v.At(int(j))
		switch {
		case a.K == xqt.KInt && b.K == xqt.KInt && !c.inexact(int(i)):
			r = cmp.Compare(a.I, b.I)
		case less(a, b):
			r = -1
		case less(b, a):
			r = 1
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

// refSortIdx is a comparator sort (sort.SliceStable over the row
// indexes, refine mode run by run): the reference the kernel must
// reproduce permutation for permutation.
func refSortIdx(t *Table, by []string, desc []bool, refinePrefix int, less func(a, b xqt.Item) bool) []int32 {
	cols := make([]rowCol, len(by))
	for k, name := range by {
		cols[k] = rowCol{t.Col(name), refInexact(t, by, k)}
	}
	idx := identity(nil, t.N)
	if refinePrefix >= len(by) {
		return idx
	}
	if refinePrefix == 0 {
		sort.SliceStable(idx, func(a, b int) bool {
			return refCompareRows(cols, desc, idx[a], idx[b], less) < 0
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
		for end < t.N && refCompareRows(prefix, nil, int32(start), int32(end), less) == 0 {
			end++
		}
		run := idx[start:end]
		sort.SliceStable(run, func(a, b int) bool {
			return refCompareRows(suffix, sufDesc, run[a], run[b], less) < 0
		})
		start = end
	}
	return idx
}

// sortColumns is one generator per column flavour the kernel
// distinguishes.
var sortColumns = []struct {
	name string
	gen  func(rng *rand.Rand, n int, w *sortWorld) ItemVec
}{
	{"int", func(rng *rand.Rand, n int, _ *sortWorld) ItemVec {
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
		return uniformIntCol(vs)
	}},
	{"wideint", func(rng *rand.Rand, n int, _ *sortWorld) ItemVec {
		vs := make([]int64, n)
		for i := range vs {
			vs[i] = rng.Int63n(1 << 40)
		}
		return uniformIntCol(vs)
	}},
	{"itemint", func(rng *rand.Rand, n int, _ *sortWorld) ItemVec {
		// past 2^53 neighbouring integers order exactly, not as one xs:double
		pick := []int64{0, 1, -1, 7, 1 << 53, 1<<53 + 1, 1<<53 + 2, -(1 << 53) - 1, math.MaxInt64, math.MinInt64}
		return itemCol(n, func() xqt.Item { return xqt.Int(pick[rng.Intn(len(pick))]) })
	}},
	{"itemdouble", func(rng *rand.Rand, n int, _ *sortWorld) ItemVec {
		pick := []float64{0, math.Copysign(0, -1), 1, -1, 1.5, math.Inf(1), math.Inf(-1), math.SmallestNonzeroFloat64, -math.MaxFloat64, 1e300}
		return itemCol(n, func() xqt.Item { return xqt.Double(pick[rng.Intn(len(pick))]) })
	}},
	{"itemnan", func(rng *rand.Rand, n int, _ *sortWorld) ItemVec {
		pick := []float64{0, 1, -1, math.NaN(), 2.5, math.Inf(-1)}
		c := itemCol(n, func() xqt.Item { return xqt.Double(pick[rng.Intn(len(pick))]) })
		if n > 0 {
			c.F[rng.Intn(n)] = math.NaN()
		}
		return c
	}},
	{"itembool", func(rng *rand.Rand, n int, _ *sortWorld) ItemVec {
		return itemCol(n, func() xqt.Item { return xqt.Bool(rng.Intn(2) == 0) })
	}},
	{"itemstring", func(rng *rand.Rand, n int, _ *sortWorld) ItemVec {
		pick := []string{"", "a", "ab", "b", "\x00", "\x00emptyleast", "é", "10", "9"}
		return itemCol(n, func() xqt.Item { return xqt.Str(pick[rng.Intn(len(pick))]) })
	}},
	{"itemuntyped", func(rng *rand.Rand, n int, _ *sortWorld) ItemVec {
		pick := []string{"", "a", "ab", "\x00", "zz"}
		return itemCol(n, func() xqt.Item { return xqt.Untyped(pick[rng.Intn(len(pick))]) })
	}},
	{"itememptyleast", func(rng *rand.Rand, n int, _ *sortWorld) ItemVec {
		return itemCol(n, func() xqt.Item {
			if rng.Intn(3) == 0 {
				return xqt.EmptyLeast
			}
			return xqt.Untyped([]string{"", "\x00", "a", "b"}[rng.Intn(4)])
		})
	}},
	{"itemnode", func(rng *rand.Rand, n int, w *sortWorld) ItemVec {
		return itemCol(n, func() xqt.Item { return w.nodes[rng.Intn(len(w.nodes))] })
	}},
	{"itemattr", func(rng *rand.Rand, n int, w *sortWorld) ItemVec {
		return itemCol(n, func() xqt.Item { return w.attrs[rng.Intn(len(w.attrs))] })
	}},
	{"itemnodeattr", func(rng *rand.Rand, n int, w *sortWorld) ItemVec {
		// an attribute sorts after its owner element and before the
		// owner's children
		return itemCol(n, func() xqt.Item {
			if rng.Intn(2) == 0 {
				return w.attrs[rng.Intn(len(w.attrs))]
			}
			return w.nodes[rng.Intn(len(w.nodes))]
		})
	}},
	{"itemmixed", func(rng *rand.Rand, n int, w *sortWorld) ItemVec {
		pick := []xqt.Item{xqt.Int(1), xqt.Int(2), xqt.Double(1), xqt.Double(1.5), xqt.Double(math.NaN()), xqt.Str("a"),
			xqt.Untyped("a"), xqt.Untyped("b"), xqt.Bool(true), xqt.Bool(false), w.nodes[3], w.attrs[3], w.nodes[9], xqt.EmptyLeast}
		c := itemCol(n, func() xqt.Item { return pick[rng.Intn(len(pick))] })
		if n > 1 { // never uniform by chance
			c = NewItemVec(append([]xqt.Item{xqt.Int(1), xqt.Str("a")}, c.Slice()[2:]...))
		}
		return c
	}},
}

// partitionedCols is a leading iteration column and a column that holds
// doubles next to integers in its odd iterations and only integers around
// 2^53 in its even ones, whose integers must stay exact.
func partitionedCols(rng *rand.Rand, n int) (iter, val ItemVec) {
	near := []int64{1 << 53, 1<<53 + 1, 1<<53 + 2, -(1 << 53) - 1, 7}
	iters, items := make([]int64, n), make([]xqt.Item, n)
	for i := range items {
		iters[i], items[i] = int64(rng.Intn(4)), xqt.Int(near[rng.Intn(len(near))])
		if iters[i]%2 == 1 && rng.Intn(2) == 0 {
			items[i] = xqt.Double([]float64{1 << 53, 0.5, 7}[rng.Intn(3)])
		}
	}
	return uniformIntCol(iters), NewItemVec(items)
}

func itemCol(n int, gen func() xqt.Item) ItemVec {
	items := make([]xqt.Item, n)
	for i := range items {
		items[i] = gen()
	}
	return NewItemVec(items)
}

// TestSortIdxMatchesComparatorSort is the property test of the sort
// kernel: over random tables of every column flavour it must return
// exactly the permutation of a stable comparator sort on the reference
// order, and nil (keep the input) exactly when the input is already in
// that order.
func TestSortIdxMatchesComparatorSort(t *testing.T) {
	w := newSortWorld(t)
	rng := rand.New(rand.NewSource(12))
	sizes := []int{0, 1, 2, radixMin - 1, radixMin, radixMin + 1, 100, 500, 10000}
	for trial := 0; trial < 400; trial++ {
		n := sizes[trial%len(sizes)]
		if n == 10000 && trial > 120 {
			n = 1000
		}
		tab := &Table{}
		var by []string
		ncols := 1 + rng.Intn(4)
		if trial%3 == 0 { // an iteration column leads a column whose iterations differ
			iter, val := partitionedCols(rng, n)
			tab.AddCol("iter", iter)
			tab.AddCol("part", val)
			by, ncols = append(by, "iter", "part"), rng.Intn(3)
		}
		for k := 0; k < ncols; k++ {
			f := sortColumns[rng.Intn(len(sortColumns))]
			name := fmt.Sprintf("c%d_%s", k, f.name)
			tab.AddCol(name, f.gen(rng, n, w))
			by = append(by, name)
		}
		tab.N = n
		var desc []bool
		if rng.Intn(2) == 0 {
			desc = make([]bool, len(by))
			for k := range desc {
				desc[k] = rng.Intn(2) == 0
			}
		}
		refine := 0
		if rng.Intn(3) == 0 {
			// a refine sort's input is ascending on the prefix
			refine = 1 + rng.Intn(len(by))
			tab = tab.Gather(refSortIdx(tab, by[:refine], nil, 0, w.less))
		}
		arrangement := rng.Intn(4)
		switch {
		case refine > 0:
			arrangement = 0
		case arrangement == 1: // presorted
			tab = tab.Gather(refSortIdx(tab, by, desc, 0, w.less))
		case arrangement == 2: // reverse order
			idx := refSortIdx(tab, by, desc, 0, w.less)
			slices.Reverse(idx)
			tab = tab.Gather(idx)
		case arrangement == 3: // all rows equal
			tab = tab.Gather(make([]int32, n))
		}
		label := fmt.Sprintf("trial %d: n=%d by=%v desc=%v refine=%d arrangement=%d", trial, n, by, desc, refine, arrangement)

		want := refSortIdx(tab, by, desc, refine, w.less)
		e := &Exec{Pool: w.pool}
		got := e.SortIdx(tab, by, desc, refine)
		switch ordered := slices.Equal(want, identity(nil, n)); {
		case ordered != (got == nil):
			t.Fatalf("%s: kernel kept the input = %v, reference finds it ordered = %v", label, got == nil, ordered)
		case got != nil && !slices.Equal(got, want):
			t.Fatalf("%s: permutation differs from the comparator sort", label)
		}
		// the operator hands an ordered input back as the same *Table
		if out := e.execSort(&Sort{By: by, Desc: desc, RefinePrefix: refine}, tab); (out == tab) != (got == nil) {
			t.Fatalf("%s: execSort returned same table = %v, kernel nil = %v", label, out == tab, got == nil)
		} else if got != nil && !TablesEqual(out, tab.Gather(want)) {
			t.Fatalf("%s: execSort output differs", label)
		}
	}
}

// refSame is fn:distinct-values' equality per pair: xqt.Compare's eq
// between values of one sort rank (a number is distinct from a string,
// an untyped value or a boolean), NaN equal to NaN, and a node equal only
// to itself.
func refSame(a, b xqt.Item) bool {
	switch {
	case a.IsNode() || b.IsNode():
		return a == b
	case xqt.KindRank(a.K) != xqt.KindRank(b.K):
		return false
	case a.IsNumeric() && math.IsNaN(a.AsDouble()):
		return math.IsNaN(b.AsDouble())
	}
	return xqt.Compare(a, b, xqt.CmpEq)
}

// TestDistinctMatchesCompareEq: δ on [iter, item] keeps, in input order,
// each row no earlier kept row of its iteration equals by refSame — over
// sorted and shuffled inputs of iterations that hold integers around 2^53
// and no double, -0 and +0, NaN of two bit patterns, strings next to
// untyped values, booleans, elements and attributes. The iterations with
// a double hold only integers a double represents, so eq is transitive
// in each.
func TestDistinctMatchesCompareEq(t *testing.T) {
	w := newSortWorld(t)
	zero := 0.0
	nums := []xqt.Item{xqt.Double(0), xqt.Double(math.Copysign(0, -1)), xqt.Double(zero / zero), xqt.Double(math.NaN()),
		xqt.Double(1), xqt.Double(0.5), xqt.Int(0), xqt.Int(1), xqt.Int(7)}
	strs := []xqt.Item{xqt.Str("a"), xqt.Untyped("a"), xqt.Untyped("b"), xqt.Str("")}
	others := []xqt.Item{xqt.Bool(true), xqt.Bool(false), w.nodes[1], w.nodes[2], w.nodes[9], w.attrs[0], w.attrs[1], w.attrs[7]}
	pools := [][]xqt.Item{
		{xqt.Int(1 << 53), xqt.Int(1<<53 + 1), xqt.Int(1<<53 + 2), xqt.Int(-(1 << 53) - 1), xqt.Int(7)},
		nums, others, append(slices.Clone(nums), others...),
	}
	rng := rand.New(rand.NewSource(5))
	for trial := range 200 {
		n := []int{0, 1, 2, 5, radixMin - 1, radixMin, 100, 1000}[trial%8]
		iters, items, rows := make([]int64, n), make([]xqt.Item, n), make([]int64, n)
		for i := range items {
			iters[i], rows[i] = int64(rng.Intn(len(pools))), int64(i)
			pool := pools[iters[i]]
			if trial%2 == 0 { // strings in every iteration: the keys hold a string column
				pool = append(slices.Clone(pool), strs...)
			}
			items[i] = pool[rng.Intn(len(pool))]
		}
		tab := &Table{N: n}
		tab.AddCol("iter", uniformIntCol(iters))
		tab.AddCol("item", NewItemVec(items))
		tab.AddCol("row", uniformIntCol(rows))
		sorted := trial%4 < 2
		if sorted {
			tab = tab.Gather(refSortIdx(tab, []string{"iter", "item"}, nil, 0, w.less))
		} else {
			perm := identity(nil, n)
			rng.Shuffle(n, func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
			tab = tab.Gather(perm)
		}
		var want []int64
		var kept []int
		for i := range n {
			if !slices.ContainsFunc(kept, func(j int) bool {
				return tab.Ints("iter")[j] == tab.Ints("iter")[i] && refSame(tab.Col("item").At(j), tab.Col("item").At(i))
			}) {
				kept, want = append(kept, i), append(want, tab.Ints("row")[i])
			}
		}
		e := &Exec{Pool: w.pool}
		out := e.execDistinct(&Distinct{By: []string{"iter", "item"}}, tab)
		if got := out.Ints("row"); !slices.Equal(got, want) {
			t.Fatalf("trial %d (n=%d, sorted %v): kept rows %v, want %v", trial, n, sorted, got, want)
		}
	}
}

// TestOrderChecksRejectMixedNodeKinds: CompareRowsOn and IsSortedBy order
// nodes of one kind, and hold an element and an attribute, which a table
// cannot order, out of order both ways — even an element and its own
// attribute, which document order puts in that order.
func TestOrderChecksRejectMixedNodeKinds(t *testing.T) {
	w := newSortWorld(t)
	table := func(items ...xqt.Item) *Table {
		tab := &Table{N: len(items)}
		tab.AddCol("item", NewItemVec(items))
		return tab
	}
	by := []string{"item"}
	owner, attr := w.nodes[1], w.attrs[0] // <r a="1" ...> and its a
	if w.less(attr, owner) || !w.less(owner, attr) {
		t.Fatal("the world's first attribute is not its first element's")
	}
	mixed := table(owner, attr)
	if IsSortedBy(mixed, by) || CompareRowsOn(mixed, by, 0, 1) != 1 || CompareRowsOn(mixed, by, 1, 0) != 1 {
		t.Error("an element and an attribute in one column are not held out of order")
	}
	for _, kind := range [][]xqt.Item{w.nodes, w.attrs} {
		if !IsSortedBy(table(kind[0], kind[1]), by) || IsSortedBy(table(kind[1], kind[0]), by) {
			t.Errorf("%v, %v: one node kind is not ordered by document order", kind[0], kind[1])
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
		in.AddCol("pos", uniformIntCol(identity64(len(part))))
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
// mixed-tag ones), non-numeric strings, "", padded numbers, NaN, ±0,
// integers past 2^53 and iterations with several rows.
func TestExistJoinPromotionMatchesCompare(t *testing.T) {
	str := []string{"1", " 2 ", "abc", "", "true", "false", "0", "10", "1.0", "-0", "NaN", "2"}
	flavours := map[string]func(rng *rand.Rand) xqt.Item{
		"untyped": func(rng *rand.Rand) xqt.Item { return xqt.Untyped(str[rng.Intn(len(str))]) },
		"string":  func(rng *rand.Rand) xqt.Item { return xqt.Str(str[rng.Intn(len(str))]) },
		"int":     func(rng *rand.Rand) xqt.Item { return xqt.Int(int64(rng.Intn(5)) - 1) },
		"double": func(rng *rand.Rand) xqt.Item {
			return xqt.Double([]float64{0, math.Copysign(0, -1), 1, 1.5, 2, 10, math.NaN(), math.Inf(1)}[rng.Intn(8)])
		},
		"bool":  func(rng *rand.Rand) xqt.Item { return xqt.Bool(rng.Intn(2) == 0) },
		"int53": func(rng *rand.Rand) xqt.Item { return xqt.Int(past253[rng.Intn(len(past253))]) },
		// integers past 2^53 next to doubles: an integer pair still compares exactly
		"int53double": func(rng *rand.Rand) xqt.Item {
			if rng.Intn(3) == 0 {
				return xqt.Double([]float64{0.5, 1 << 53, 1<<53 + 2, math.NaN()}[rng.Intn(4)])
			}
			return xqt.Int(past253[rng.Intn(len(past253))])
		},
	}
	names := []string{"untyped", "string", "int", "double", "bool", "int53", "int53double", "mixed"}
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
	tab := NewTable([]string{"iter", "item"}, []xqt.Kind{xqt.KInt, xqt.KUntyped})
	for i := 0; i < n; i++ {
		*tab.Col("iter") = BindInts(append(tab.Ints("iter"), int64(i/3))...)
		tab.Col("item").Append(xqt.Node(int32(i/2000), int32(i%2000)))
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
