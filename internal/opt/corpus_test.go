package opt_test

import (
	"bufio"
	"crypto/sha256"
	"fmt"
	"os"
	"slices"
	"strings"
	"testing"

	"mxq/internal/opt"
	"mxq/internal/planck"
	"mxq/internal/qgen"
	"mxq/internal/ralg"
	"mxq/internal/xmark"
	"mxq/internal/xqc"
	"mxq/internal/xqp"
	"mxq/internal/xqt"
)

// coldTexts is the compile-cold corpus of the repository benchmark
// (bench/workload.go): the twenty XMark queries, then the first 1 225
// distinct texts of qgen seed 1. A text that does not compile is left
// out.
func coldTexts() (ids, texts []string) {
	for i, q := range xmark.Queries {
		ids = append(ids, fmt.Sprintf("X%d", i+1))
		texts = append(texts, q)
	}
	g := qgen.New(1, nil)
	seen := map[string]bool{}
	for len(seen) < 1225 {
		q := g.Query()
		if !seen[q] {
			ids = append(ids, fmt.Sprintf("G%04d", len(seen)))
			texts = append(texts, q)
			seen[q] = true
		}
	}
	return ids, texts
}

// compilePlans compiles one text to its unoptimized plans: every
// parameter initializer, then the main plan. nil when it does not
// compile.
func compilePlans(q string) []ralg.Plan {
	m, err := xqp.Parse(q)
	if err != nil {
		return nil
	}
	cq, err := xqc.Compile(m, xqc.DefaultOptions())
	if err != nil {
		return nil
	}
	var plans []ralg.Plan
	for _, p := range cq.Params {
		if p.Init != nil {
			plans = append(plans, p.Init)
		}
	}
	return append(plans, cq.Plan)
}

// optimized optimizes p the way the engine does, numbering it once and
// optimizing the schedule, and checks that the schedule the optimizer
// emits is the one ralg.NewSchedule numbers its root into.
func optimized(tb testing.TB, p ralg.Plan) ralg.Schedule {
	tb.Helper()
	s := opt.OptimizeSchedule(ralg.NewSchedule(p), nil)
	if err := scheduleDiff(s, ralg.NewSchedule(s[len(s)-1].Plan)); err != "" {
		tb.Errorf("emitted schedule: %s", err)
	}
	return s
}

// scheduleDiff describes the first entry where got and want differ in
// plan or inputs ("" when they agree entry for entry).
func scheduleDiff(got, want ralg.Schedule) string {
	for i := range min(len(got), len(want)) {
		if got[i].Plan != want[i].Plan || !slices.Equal(got[i].In, want[i].In) {
			return fmt.Sprintf("#%d is %s%v, want %s%v", i, got[i].Plan.Name(), got[i].In, want[i].Plan.Name(), want[i].In)
		}
	}
	if len(got) != len(want) {
		return fmt.Sprintf("%d entries, want %d", len(got), len(want))
	}
	return ""
}

// identityRecord renders what the optimizer decides for one plan: the
// optimized plan through planck.Explain, then every node's inferred
// properties in schedule order, each set sorted. Both read the schedule
// the optimizer emits.
func identityRecord(tb testing.TB, p ralg.Plan) string {
	s := optimized(tb, p)
	var b strings.Builder
	tree, err := planck.Explain(s, planck.Config{})
	b.WriteString(tree)
	if err != nil {
		b.WriteString(err.Error())
	}
	props := opt.InferProps(s)
	for i, op := range s {
		n := op.Plan
		pr := props[i]
		var ords, grps []string
		for _, o := range pr.Ords() {
			ords = append(ords, strings.Join(o, ","))
		}
		for _, g := range pr.Grps() {
			grps = append(grps, strings.Join(g.Cols, ",")+";"+g.Group)
		}
		slices.Sort(ords)
		slices.Sort(grps)
		fmt.Fprintf(&b, "%d %s k%v c%v o%q g%q\n", i, n.Name(), pr.KeyCols(), pr.ConstCols(), ords, grps)
	}
	return b.String()
}

// identityDigest is one line per compiling corpus text: its id and the
// SHA-256 prefix of its plans' identity records.
func identityDigest(tb testing.TB) string {
	var b strings.Builder
	ids, texts := coldTexts()
	for i, q := range texts {
		plans := compilePlans(q)
		if plans == nil {
			continue
		}
		h := sha256.New()
		for _, p := range plans {
			h.Write([]byte(identityRecord(tb, p)))
		}
		fmt.Fprintf(&b, "%s %x\n", ids[i], h.Sum(nil)[:8])
	}
	return b.String()
}

// TestOptimizeIdentityCorpus pins every optimizer decision on the
// compile-cold corpus — each optimized plan and every node's inferred
// properties — to testdata/identity.digest: a faster inference has to
// reach exactly the same answers. The digest was generated before the
// property representation changed, and regenerated only when the
// compiler's plans changed on purpose (the NaN filter of the Fig. 8(b)
// reduction: 57 texts; the count plans of fn:count over a FLWOR: 4;
// paths chained in staircase order, with const(iter) kept through each
// step and reverse-axis positions numbered descending: 1 241; conditions
// compiled to the iteration sets where they hold, and predicates that
// are not provably conditions given their items' positions: 780;
// predicates that cannot see position filtering their step's output in
// staircase order, the attribute axis a Step axis, and a hash join's
// left order kept under repetitions: 1 028; fn:count, fn:exists,
// fn:empty and conditions over a path compiled to count plans: 567;
// columns typed by their item tags, printed as such, and ColToItem
// gone: all 1 245, with the same rules firing in the same order; the
// compiler's Fig. 8(b) reduction and its NaN filter deleted, so a
// same-loop general comparison always pairs its sides on iter: 57;
// Distinct's merge flag and its " merge" label deleted: 627, and the
// previous plans rendered without the label give the new digest on all
// 1 245; the dense property and the join's positional flags deleted, so
// the record loses its d[…] field and the plans their dense{…}, " pos"
// and " posleft" labels: all 1 245, and the previous plans rendered
// without them give the new digest on all 1 245; the pass interning
// equal operators, so a subexpression repeated in the query text is one
// shared node: 821, with the same rules firing in the same order on all
// 1 245; every singleton operand checked by a CardCheck that carries its
// error code instead of cut to its first item: 317, exactly the texts
// whose plans hold a CardCheck or CoverCheck — 135 change shape and 182
// change only the code their check's label now prints; explain's #N
// printed as the node's schedule number instead of a preorder count
// from 1: all 1 245, and the previous code printing schedule numbers
// gives the new digest on all 1 245; a nest of direct constructors
// compiled to one ElemConstruct whose label prints its template, and the
// content list's union, sort and numbering gone: 202). Every record is rendered from the
// schedule the optimizer emits, which must equal ralg.NewSchedule of its
// root entry for entry.
func TestOptimizeIdentityCorpus(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles and optimizes ~1 200 plans")
	}
	f, err := os.Open("testdata/identity.digest")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		id, sum, _ := strings.Cut(sc.Text(), " ")
		want[id] = sum
	}
	got := identityDigest(t)
	n := 0
	for _, line := range strings.Split(strings.TrimSpace(got), "\n") {
		id, sum, _ := strings.Cut(line, " ")
		if w, ok := want[id]; !ok || w != sum {
			t.Errorf("%s: digest %s, want %q", id, sum, w)
		}
		n++
	}
	if n != len(want) {
		t.Errorf("%d texts compile, the digest has %d", n, len(want))
	}
}

// xmarkSchedules compiles and numbers n fresh copies of the twenty XMark
// main plans (the optimizer rewrites in place, so every run needs its
// own), and returns the node count of one copy.
func xmarkSchedules(tb testing.TB, n int) (sets [][]ralg.Schedule, nodes int) {
	for range n {
		var set []ralg.Schedule
		for _, q := range xmark.Queries {
			plans := compilePlans(q)
			if plans == nil {
				tb.Fatalf("XMark query does not compile: %s", q)
			}
			set = append(set, ralg.NewSchedule(plans[len(plans)-1]))
		}
		sets = append(sets, set)
	}
	for _, s := range sets[0] {
		nodes += len(s)
	}
	return sets, nodes
}

// TestOptimizeAllocs bounds the optimizer's heap allocations per plan
// node on the twenty XMark plans, numbered outside the count as the
// engine numbers them once for the verifier and the optimizer alike.
// Allocation counts do not depend on the machine, so the bound holds on
// any CI host. With three maps per node and copied orderings the
// optimizer made 29.3 per node here; with interned columns, bitsets and
// shared property sets 1.7 (1.67 before it also interned the operators,
// 1.70 since); with the memo map and recursion replaced by one loop over
// the schedule, 0.71.
func TestOptimizeAllocs(t *testing.T) {
	const runs = 5
	sets, nodes := xmarkSchedules(t, runs+1) // AllocsPerRun warms up once
	next := 0
	allocs := testing.AllocsPerRun(runs, func() {
		for _, s := range sets[next] {
			opt.OptimizeSchedule(s, nil)
		}
		next++
	})
	perNode := allocs / float64(nodes)
	t.Logf("%.0f allocations over %d nodes: %.2f per node", allocs, nodes, perNode)
	if perNode > 2.5 {
		t.Errorf("optimizer makes %.2f allocations per plan node, bound 2.5", perNode)
	}
}

// BenchmarkOptimizeCorpus optimizes every plan of the compile-cold
// corpus once per iteration; the plans are compiled and numbered outside
// the timer.
func BenchmarkOptimizeCorpus(b *testing.B) {
	_, texts := coldTexts()
	b.ReportAllocs()
	for range b.N {
		b.StopTimer()
		var scheds []ralg.Schedule
		for _, q := range texts {
			for _, p := range compilePlans(q) {
				scheds = append(scheds, ralg.NewSchedule(p))
			}
		}
		b.StartTimer()
		for _, s := range scheds {
			opt.OptimizeSchedule(s, nil)
		}
	}
}

// widePlan projects a 3-row table of 100 columns (even ones sorted, odd
// ones unsorted) through two renaming Projects — 300 column names, far
// past one bitset word and the one-byte ids — then sorts by an odd
// column and numbers the rows.
func widePlan() (root ralg.Plan, last *ralg.Project) {
	var names []string
	var kinds []xqt.Kind
	for i := range 100 {
		names = append(names, fmt.Sprintf("c%d", i))
		kinds = append(kinds, xqt.KInt)
	}
	tab := ralg.NewTable(names, kinds)
	tab.N = 3
	for i, c := range names {
		*tab.Col(c) = ralg.BindInts(1, 2, 3)
		if i%2 == 1 {
			*tab.Col(c) = ralg.BindInts(3, 1, 2)
		}
	}
	var p ralg.Plan = &ralg.Lit{Tab: tab}
	for _, to := range []string{"d", "e"} {
		var refs []string
		for i := range 100 {
			refs = append(refs, fmt.Sprintf("%s%d->%s%d", names[i][:1], i, to, i))
		}
		last = ralg.NewProject(p, refs...)
		p = last
		for i := range names {
			names[i] = fmt.Sprintf("%s%d", to, i)
		}
	}
	return ralg.NewRowNum(ralg.NewSort(p, "e99"), "r", []string{"e99"}, ""), last
}

// TestWidePlanProps drives the inference through the overflow words of
// the column bitsets: every property the optimizer claims must pass
// planck, the claims on high column ids must be there, and the plan's
// identity record must be the one the map-based inference produced
// (re-pinned when planck's schema printed tags for column kinds: the
// record differs by the words "int" → "integer" only; and when the dense
// property went: the record differs by its d[…] fields and dense{…}
// labels only; and when explain's #N became the schedule number: the
// record differs by those numbers only).
func TestWidePlanProps(t *testing.T) {
	root, proj := widePlan()
	root = opt.Optimize(root)
	if err := planck.Verify(root, planck.Config{}); err != nil {
		t.Fatal(err)
	}
	s := ralg.NewSchedule(root)
	props := opt.InferProps(s)
	pp := props[slices.IndexFunc(s, func(op ralg.Op) bool { return op.Plan == proj })]
	if !pp.Key("e98") || pp.Key("e97") || !pp.Covers([]string{"e98", "e97"}) || pp.Covers([]string{"e97"}) {
		t.Errorf("projected props: key %v ords %v", pp.KeyCols(), pp.Ords())
	}
	if len(pp.KeyCols()) != 50 || len(pp.ConstCols()) != 0 {
		t.Errorf("%d key, %d const columns, want 50 and 0", len(pp.KeyCols()), len(pp.ConstCols()))
	}
	if rp := props[len(s)-1]; !rp.Key("r") || !rp.Covers([]string{"r"}) || !rp.Covers([]string{"e99", "e0"}) || rp.Covers([]string{"e98"}) {
		t.Errorf("numbered props: key %v ords %v", rp.KeyCols(), rp.Ords())
	}
	root, _ = widePlan()
	if got := fmt.Sprintf("%x", sha256.Sum256([]byte(identityRecord(t, root)))); got[:16] != "055fb7a6a3d991d8" {
		t.Errorf("wide plan identity %s", got[:16])
	}
}
