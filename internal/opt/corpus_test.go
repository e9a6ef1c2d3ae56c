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

// identityRecord renders what the optimizer decides for one plan: the
// optimized plan through planck.Explain, then every node's inferred
// properties in Walk order, each set sorted.
func identityRecord(p ralg.Plan) string {
	p = opt.Optimize(p)
	var b strings.Builder
	s, err := planck.Explain(p, planck.Config{})
	b.WriteString(s)
	if err != nil {
		b.WriteString(err.Error())
	}
	props := opt.InferProps(p)
	i := 0
	ralg.Walk(p, func(n ralg.Plan) {
		pr := props[n]
		var ords, grps []string
		for _, o := range pr.Ords() {
			ords = append(ords, strings.Join(o, ","))
		}
		for _, g := range pr.Grps() {
			grps = append(grps, strings.Join(g.Cols, ",")+";"+g.Group)
		}
		slices.Sort(ords)
		slices.Sort(grps)
		fmt.Fprintf(&b, "%d %s d%v k%v c%v o%q g%q\n", i, n.Name(), pr.DenseCols(), pr.KeyCols(), pr.ConstCols(), ords, grps)
		i++
	})
	return b.String()
}

// identityDigest is one line per compiling corpus text: its id and the
// SHA-256 prefix of its plans' identity records.
func identityDigest() string {
	var b strings.Builder
	ids, texts := coldTexts()
	for i, q := range texts {
		plans := compilePlans(q)
		if plans == nil {
			continue
		}
		h := sha256.New()
		for _, p := range plans {
			h.Write([]byte(identityRecord(p)))
		}
		fmt.Fprintf(&b, "%s %x\n", ids[i], h.Sum(nil)[:8])
	}
	return b.String()
}

// TestOptimizeIdentityCorpus pins every optimizer decision on the
// compile-cold corpus — each optimized plan and every node's inferred
// properties — to the digest generated before the property
// representation changed (testdata/identity.digest): a faster inference
// has to reach exactly the same answers.
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
	got := identityDigest()
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

// xmarkPlans compiles n fresh copies of the twenty XMark main plans
// (Optimize rewrites in place, so every optimizer run needs its own),
// and returns the node count of one copy.
func xmarkPlans(tb testing.TB, n int) (sets [][]ralg.Plan, nodes int) {
	for range n {
		var set []ralg.Plan
		for _, q := range xmark.Queries {
			plans := compilePlans(q)
			if plans == nil {
				tb.Fatalf("XMark query does not compile: %s", q)
			}
			set = append(set, plans[len(plans)-1])
		}
		sets = append(sets, set)
	}
	for _, p := range sets[0] {
		ops, _ := ralg.CountOps(p)
		nodes += ops
	}
	return sets, nodes
}

// TestOptimizeAllocs bounds the optimizer's heap allocations per plan
// node on the twenty XMark plans. Allocation counts do not depend on
// the machine, so the bound holds on any CI host. With three maps per
// node and copied orderings the optimizer made 29.3 per node here; with
// interned columns, bitsets and shared property sets it makes 1.57.
func TestOptimizeAllocs(t *testing.T) {
	const runs = 5
	sets, nodes := xmarkPlans(t, runs+1) // AllocsPerRun warms up once
	next := 0
	allocs := testing.AllocsPerRun(runs, func() {
		for _, p := range sets[next] {
			opt.Optimize(p)
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
// corpus once per iteration; the plans are compiled outside the timer.
func BenchmarkOptimizeCorpus(b *testing.B) {
	_, texts := coldTexts()
	b.ReportAllocs()
	for range b.N {
		b.StopTimer()
		var plans []ralg.Plan
		for _, q := range texts {
			plans = append(plans, compilePlans(q)...)
		}
		b.StartTimer()
		for _, p := range plans {
			opt.Optimize(p)
		}
	}
}

// widePlan projects a 3-row table of 100 columns (even ones dense, odd
// ones unsorted) through two renaming Projects — 300 column names, far
// past one bitset word and the one-byte ids — then sorts by an odd
// column and numbers the rows.
func widePlan() (root ralg.Plan, last *ralg.Project) {
	var names []string
	var kinds []ralg.ColKind
	for i := range 100 {
		names = append(names, fmt.Sprintf("c%d", i))
		kinds = append(kinds, ralg.KInt)
	}
	tab := ralg.NewTable(names, kinds)
	tab.N = 3
	for i, c := range names {
		tab.Col(c).Int = []int64{1, 2, 3}
		if i%2 == 1 {
			tab.Col(c).Int = []int64{3, 1, 2}
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
// identity record must be the one the map-based inference produced.
func TestWidePlanProps(t *testing.T) {
	root, proj := widePlan()
	root = opt.Optimize(root)
	if err := planck.Verify(root, planck.Config{}); err != nil {
		t.Fatal(err)
	}
	props := opt.InferProps(root)
	pp := props[proj]
	if !pp.Dense("e98") || !pp.Key("e98") || pp.Dense("e97") || !pp.Covers([]string{"e98", "e97"}) || pp.Covers([]string{"e97"}) {
		t.Errorf("projected props: dense %v key %v ords %v", pp.DenseCols(), pp.KeyCols(), pp.Ords())
	}
	if len(pp.DenseCols()) != 50 || len(pp.ConstCols()) != 0 {
		t.Errorf("%d dense, %d const columns, want 50 and 0", len(pp.DenseCols()), len(pp.ConstCols()))
	}
	if rp := props[root]; !rp.Dense("r") || !rp.Covers([]string{"e99", "e0"}) || rp.Dense("e98") {
		t.Errorf("numbered props: dense %v ords %v", rp.DenseCols(), rp.Ords())
	}
	root, _ = widePlan()
	if got := fmt.Sprintf("%x", sha256.Sum256([]byte(identityRecord(root)))); got[:16] != "e1548432ecd97143" {
		t.Errorf("wide plan identity %s", got[:16])
	}
}
