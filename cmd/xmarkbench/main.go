// Command xmarkbench regenerates the paper's evaluation (§6): every table
// and figure has a corresponding experiment that prints the same rows or
// series the paper reports.
//
//	xmarkbench -experiment table1   # Table 1: Q1–Q20 across sizes and systems
//	xmarkbench -experiment fig12    # benefit of loop-lifted staircase join
//	xmarkbench -experiment fig13    # join recognition: cross product vs join
//	xmarkbench -experiment fig14    # sort reduction via order properties
//	xmarkbench -experiment fig15    # scalability across document sizes
//	xmarkbench -experiment fig16    # normalized cross-system comparison
//	xmarkbench -experiment shred    # shredding and serialization timings
//	xmarkbench -experiment plans    # §4.1 plan statistics (ops/joins)
//	xmarkbench -experiment parallel # serial vs parallel execution + multi-client throughput
//	xmarkbench -experiment collection # sharded multi-document collection() scaling (-collection N docs)
//	xmarkbench -experiment mem      # per-query memory governance: accounting overhead + typed aborts
//	xmarkbench -experiment all
//
// An unknown experiment name exits with status 2 and lists the valid ones.
//
// The -parallel flag switches every experiment's MXQ engine to parallel
// intra-query execution (worker pool sized by -workers, default
// GOMAXPROCS); the parallel experiment always measures both modes and a
// -clients sized multi-client throughput run.
//
// MXQ is this reproduction's relational engine; NAIVE is the DOM
// interpreter standing in for the paper's non-relational comparators
// (eXist/Galax/X-Hive/BDB — see DESIGN.md for the substitution).
//
// Run them with MXQ_CHECK_REWRITES unset: rewrite tracing off, the
// optimizer's translation-validation hook costs one nil check per
// rewrite site (opt.OptimizeTraced with a nil trace is exactly
// opt.Optimize), so the numbers are unaffected by the optcheck layer —
// see docs/optimizer.md.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"mxq/internal/core"
	"mxq/internal/naive"
	"mxq/internal/ralg"
	"mxq/internal/scj"
	"mxq/internal/store"
	"mxq/internal/xmark"
)

var (
	scalesFlag  = flag.String("scales", "0.001,0.01,0.1", "comma-separated XMark scale factors")
	seedFlag    = flag.Int64("seed", 42, "generator seed")
	runsFlag    = flag.Int("runs", 3, "report the best of N runs (the paper uses 5)")
	timeoutFlag = flag.Duration("timeout", 60*time.Second, "per-query soft time limit; slower entries print DNF")
	expFlag     = flag.String("experiment", "all", "experiment to run (table1, fig12, fig13, fig14, fig15, fig16, shred, plans, parallel, collection, mem, all)")

	parallelFlag = flag.Bool("parallel", false, "run MXQ engines with intra-query parallel execution")
	workersFlag  = flag.Int("workers", 0, "parallel worker goroutines (0 = GOMAXPROCS)")
	clientsFlag  = flag.Int("clients", 4, "concurrent clients in the parallel experiment's throughput section")

	collectionFlag = flag.Int("collection", 8, "documents in the collection experiment's sharded corpus")
)

// experiments lists every experiment in the order -experiment all runs
// them.
var experiments = []struct {
	name string
	run  func([]float64)
}{
	{"table1", table1}, {"fig12", fig12}, {"fig13", fig13}, {"fig14", fig14},
	{"fig15", fig15}, {"fig16", fig16}, {"shred", shred}, {"plans", plans},
	{"parallel", parallel}, {"collection", collection}, {"mem", memExp},
}

func main() {
	flag.Parse()
	names := []string{"all"}
	for _, e := range experiments {
		names = append(names, e.name)
	}
	if !slices.Contains(names, *expFlag) {
		fmt.Fprintf(os.Stderr, "xmarkbench: unknown experiment %q (valid: %s)\n", *expFlag, strings.Join(names, ", "))
		os.Exit(2)
	}
	scales := parseScales(*scalesFlag)
	for _, e := range experiments {
		if *expFlag == e.name || *expFlag == "all" {
			e.run(scales)
		}
	}
}

func parseScales(s string) []float64 {
	var out []float64
	for _, part := range strings.Split(s, ",") {
		var f float64
		if _, err := fmt.Sscanf(strings.TrimSpace(part), "%g", &f); err == nil && f > 0 {
			out = append(out, f)
		}
	}
	sort.Float64s(out)
	if len(out) == 0 {
		out = []float64{0.001, 0.01}
	}
	return out
}

func mb(f float64) string { return fmt.Sprintf("%.1f MB", f*110) }

// bestOf times fn, returning the best of *runsFlag runs; a first run
// exceeding the timeout reports (0, false).
func bestOf(fn func() error) (time.Duration, bool) {
	best := time.Duration(0)
	for i := 0; i < *runsFlag; i++ {
		start := time.Now()
		if err := fn(); err != nil {
			fmt.Fprintln(os.Stderr, "query error:", err)
			return 0, false
		}
		d := time.Since(start)
		if i == 0 && d > *timeoutFlag {
			return 0, false
		}
		if best == 0 || d < best {
			best = d
		}
	}
	return best, true
}

func fmtTime(d time.Duration, ok bool) string {
	if !ok {
		return "DNF"
	}
	return fmt.Sprintf("%.3f", d.Seconds())
}

func engineFor(cfg core.Config, cont *store.Container) *core.Engine {
	if *parallelFlag {
		cfg.Parallel = true
		cfg.Workers = *workersFlag
	}
	e := core.New(cfg)
	e.LoadContainer(cont.Name, cont)
	return e
}

// cheapMix is the XMark query mix of the parallel experiment's
// multi-client throughput run: cheap queries, so the run measures
// concurrency overhead rather than a single heavy plan.
var cheapMix = []int{1, 2, 5, 6, 13, 15, 17, 20}

// parallel measures intra-query parallelism (serial vs parallel per
// XMark query, with speedups, at every requested scale) and
// multi-client throughput on one shared engine — the two scaling axes
// the parallel subsystem adds. The parallel engine has no scheduler, so
// its concurrent clients share its own -workers slot pool.
func parallel(scales []float64) {
	workers := *workersFlag
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	var serialEng, parEng *core.Engine
	for _, f := range scales {
		fmt.Printf("\n== Parallel execution (%s, %d workers, GOMAXPROCS=%d) ==\n",
			mb(f), workers, runtime.GOMAXPROCS(0))
		cont := xmark.NewStoreContainer("auction.xml", f, *seedFlag)
		serialEng = core.New(core.DefaultConfig())
		serialEng.LoadContainer(cont.Name, cont)
		parCfg := core.ParallelConfig()
		parCfg.Workers = workers
		parEng = core.New(parCfg)
		parEng.LoadContainer(cont.Name, cont)

		fmt.Printf("%-4s %12s %12s %8s\n", "Q", "serial", "parallel", "speedup")
		var sumS, sumP time.Duration
		allOK := true
		for q := 1; q <= 20; q++ {
			query := xmark.Query(q)
			ds, okS := bestOf(func() error { _, err := serialEng.Query(query); return err })
			dp, okP := bestOf(func() error { _, err := parEng.Query(query); return err })
			allOK = allOK && okS && okP
			sumS += ds
			sumP += dp
			ratio := "-"
			if okS && okP && dp > 0 {
				ratio = fmt.Sprintf("%.2fx", float64(ds)/float64(dp))
			}
			fmt.Printf("Q%-3d %12s %12s %8s\n", q, fmtTime(ds, okS), fmtTime(dp, okP), ratio)
		}
		sumRatio := "-"
		if allOK && sumP > 0 {
			sumRatio = fmt.Sprintf("%.2fx", float64(sumS)/float64(sumP))
		}
		fmt.Printf("%-4s %12s %12s %8s\n", "sum", fmtTime(sumS, allOK), fmtTime(sumP, allOK), sumRatio)
	}

	// multi-client throughput at the largest scale: C goroutines issue
	// the cheap query mix against ONE engine (the concurrency-safety
	// axis)
	clients := *clientsFlag
	if clients < 1 {
		clients = 1
	}
	const perClient = 8
	throughput := func(eng *core.Engine) (float64, error) {
		var wg sync.WaitGroup
		errs := make(chan error, clients)
		start := time.Now()
		for cl := 0; cl < clients; cl++ {
			wg.Add(1)
			go func(cl int) {
				defer wg.Done()
				for i := 0; i < perClient; i++ {
					if _, err := eng.Query(xmark.Query(cheapMix[(cl+i)%len(cheapMix)])); err != nil {
						errs <- err
						return
					}
				}
			}(cl)
		}
		wg.Wait()
		close(errs)
		if err := <-errs; err != nil {
			return 0, err
		}
		return float64(clients*perClient) / time.Since(start).Seconds(), nil
	}
	fmt.Printf("\n-- throughput, %d concurrent clients x %d queries (one shared engine) --\n", clients, perClient)
	for _, mode := range []struct {
		label string
		eng   *core.Engine
	}{{"serial exec", serialEng}, {"parallel exec", parEng}} {
		qps, err := throughput(mode.eng)
		if err != nil {
			fmt.Fprintln(os.Stderr, "throughput error:", err)
			return
		}
		fmt.Printf("%-14s %8.1f queries/s\n", mode.label, qps)
	}
}

// collection measures sharded multi-document stores: N XMark documents
// are generated into a collection with one shard per document, and
// collection()-rooted queries run serial versus parallel — the parallel
// executor distributes the per-shard staircase joins across the worker
// pool, so the speedup axis here is shards, not intra-document ranges.
func collection(scales []float64) {
	ndocs := *collectionFlag
	if ndocs < 1 {
		ndocs = 8
	}
	workers := *workersFlag
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	f := scales[len(scales)-1]
	fmt.Printf("\n== Sharded collection: %d x %s documents, %d shards, %d workers (GOMAXPROCS=%d) ==\n",
		ndocs, mb(f), ndocs, workers, runtime.GOMAXPROCS(0))
	// a ShardedPool belongs to one engine; generation is deterministic,
	// so each engine gets its own identical corpus
	spSerial, _ := xmark.BuildShardedCollection("xmark", ndocs, ndocs, f, *seedFlag)
	spPar, _ := xmark.BuildShardedCollection("xmark", ndocs, ndocs, f, *seedFlag)
	serialEng := core.New(core.DefaultConfig())
	serialEng.RegisterCollection(spSerial)
	parCfg := core.ParallelConfig()
	parCfg.Workers = workers
	parEng := core.New(parCfg)
	parEng.RegisterCollection(spPar)

	queries := []struct{ label, q string }{
		{"count-person", `count(collection("xmark")/site/people/person)`},
		{"desc-item", `count(collection("xmark")//item)`},
		{"names", `for $p in collection("xmark")/site/people/person where $p/@id = "person0" return $p/name/text()`},
		{"sum-per-doc", `sum(for $d in collection("xmark") return count($d/site/regions//item))`},
		{"closed-auct", `count(collection("xmark")/site/closed_auctions/closed_auction[price > 40])`},
	}
	fmt.Printf("%-12s %12s %12s %8s\n", "query", "serial", "parallel", "speedup")
	var sumS, sumP time.Duration
	allOK := true
	for _, qc := range queries {
		ds, okS := bestOf(func() error { _, err := serialEng.Query(qc.q); return err })
		dp, okP := bestOf(func() error { _, err := parEng.Query(qc.q); return err })
		allOK = allOK && okS && okP
		sumS += ds
		sumP += dp
		ratio := "-"
		if okS && okP && dp > 0 {
			ratio = fmt.Sprintf("%.2fx", float64(ds)/float64(dp))
		}
		fmt.Printf("%-12s %12s %12s %8s\n", qc.label, fmtTime(ds, okS), fmtTime(dp, okP), ratio)
	}
	sumRatio := "-"
	if allOK && sumP > 0 {
		sumRatio = fmt.Sprintf("%.2fx", float64(sumS)/float64(sumP))
	}
	fmt.Printf("%-12s %12s %12s %8s\n", "sum", fmtTime(sumS, allOK), fmtTime(sumP, allOK), sumRatio)
}

// table1 reproduces Table 1: elapsed seconds for Q1–Q20 over growing
// documents, for the relational engine (MXQ) and the naive comparator.
func table1(scales []float64) {
	fmt.Println("== Table 1: XMark query evaluation (elapsed time in seconds) ==")
	for _, f := range scales {
		cont := xmark.NewStoreContainer("auction.xml", f, *seedFlag)
		eng := engineFor(core.DefaultConfig(), cont)
		oracle := naive.New()
		oracle.LoadContainer("auction.xml", cont)
		fmt.Printf("\n-- %s (factor %g) --\n", mb(f), f)
		fmt.Printf("%-4s %10s %10s\n", "Q", "MXQ", "NAIVE")
		var sumM, sumN time.Duration
		for q := 1; q <= 20; q++ {
			query := xmark.Query(q)
			dm, okM := bestOf(func() error { _, err := eng.Query(query); return err })
			dn, okN := bestOf(func() error { _, err := oracle.Query(query); return err })
			sumM += dm
			sumN += dn
			fmt.Printf("Q%-3d %10s %10s\n", q, fmtTime(dm, okM), fmtTime(dn, okN))
		}
		fmt.Printf("%-4s %10s %10s\n", "sum", fmtTime(sumM, true), fmtTime(sumN, true))
	}
}

// fig12 reproduces Figure 12: the benefit of the loop-lifted staircase
// join, as speedup relative to the fully iterative configuration.
func fig12(scales []float64) {
	f := scales[len(scales)-1]
	fmt.Printf("\n== Figure 12: loop-lifted staircase join, speedup vs iterative (%s) ==\n", mb(f))
	cont := xmark.NewStoreContainer("auction.xml", f, *seedFlag)
	mkCfg := func(child, desc scj.Variant, nametest bool) core.Config {
		c := core.DefaultConfig()
		c.Compiler.ChildVariant = child
		c.Compiler.DescVariant = desc
		c.Compiler.NametestPushdown = nametest
		return c
	}
	configs := []struct {
		label string
		cfg   core.Config
	}{
		{"iter-child/iter-desc", mkCfg(scj.Iterative, scj.Iterative, false)},
		{"iter-child/ll-desc", mkCfg(scj.Iterative, scj.LoopLifted, false)},
		{"ll-child/iter-desc", mkCfg(scj.LoopLifted, scj.Iterative, false)},
		{"ll-child/ll-desc", mkCfg(scj.LoopLifted, scj.LoopLifted, false)},
		{"ll+nametest", mkCfg(scj.LoopLifted, scj.LoopLifted, true)},
	}
	engines := make([]*core.Engine, len(configs))
	for i, c := range configs {
		engines[i] = engineFor(c.cfg, cont)
	}
	fmt.Printf("%-4s", "Q")
	for _, c := range configs {
		fmt.Printf(" %22s", c.label)
	}
	fmt.Println()
	for q := 1; q <= 20; q++ {
		query := xmark.Query(q)
		base := time.Duration(0)
		fmt.Printf("Q%-3d", q)
		for i := range configs {
			d, ok := bestOf(func() error { _, err := engines[i].Query(query); return err })
			if i == 0 {
				base = d
			}
			if !ok {
				fmt.Printf(" %22s", "DNF")
			} else if i == 0 {
				fmt.Printf(" %19.3fs 1x", d.Seconds())
			} else {
				fmt.Printf(" %14.3fs %5.1fx", d.Seconds(), float64(base)/float64(d))
			}
		}
		fmt.Println()
	}
}

// fig13 reproduces Figure 13: the join queries Q8–Q12 with and without
// join recognition (Cartesian product vs theta-join).
func fig13(scales []float64) {
	f := scales[len(scales)-1]
	fmt.Printf("\n== Figure 13: XQuery join optimization (%s): cross product vs join ==\n", mb(f))
	cont := xmark.NewStoreContainer("auction.xml", f, *seedFlag)
	join := engineFor(core.DefaultConfig(), cont)
	crossCfg := core.DefaultConfig()
	crossCfg.Compiler.JoinRecognition = false
	cross := engineFor(crossCfg, cont)
	fmt.Printf("%-4s %12s %12s %8s\n", "Q", "join", "cross", "speedup")
	for q := 8; q <= 12; q++ {
		query := xmark.Query(q)
		dj, okJ := bestOf(func() error { _, err := join.Query(query); return err })
		dc, okC := bestOf(func() error { _, err := cross.Query(query); return err })
		ratio := "-"
		if okJ && okC {
			ratio = fmt.Sprintf("%.1fx", float64(dc)/float64(dj))
		}
		fmt.Printf("Q%-3d %12s %12s %8s\n", q, fmtTime(dj, okJ), fmtTime(dc, okC), ratio)
	}
}

// fig14 reproduces Figure 14: order-preserving vs non-order-preserving
// plans (sort elimination, refine sorts, streaming rank).
func fig14(scales []float64) {
	f := scales[len(scales)-1]
	fmt.Printf("\n== Figure 14: sort reduction (%s): order-aware vs baseline ==\n", mb(f))
	cont := xmark.NewStoreContainer("auction.xml", f, *seedFlag)
	ordered := engineFor(core.DefaultConfig(), cont)
	noCfg := core.DefaultConfig()
	noCfg.OrderAware = false
	unordered := engineFor(noCfg, cont)
	// sorts/presorted: sort operators the order-aware plan still runs,
	// and how many of them the kernel's runtime check found already in
	// order — orderings the static inference has yet to derive
	fmt.Printf("%-4s %12s %12s %8s %6s %9s %13s\n", "Q", "order-aware", "baseline", "speedup", "sorts", "presorted", "rows presorted")
	var sumA, sumB time.Duration
	for q := 1; q <= 20; q++ {
		query := xmark.Query(q)
		var st ralg.ExecStats
		da, okA := bestOf(func() error {
			res, err := ordered.Query(query)
			if err == nil {
				st = res.Stats
			}
			return err
		})
		db, okB := bestOf(func() error { _, err := unordered.Query(query); return err })
		sumA += da
		sumB += db
		ratio := "-"
		if okA && okB {
			ratio = fmt.Sprintf("%.2fx", float64(db)/float64(da))
		}
		fmt.Printf("Q%-3d %12s %12s %8s %6d %9d %6d/%-6d\n", q, fmtTime(da, okA), fmtTime(db, okB), ratio,
			st.FullSorts+st.RefineSort, st.SortsPresorted, st.RowsPresorted, st.SortedRows)
	}
	fmt.Printf("%-4s %12s %12s %8.2fx\n", "sum", fmtTime(sumA, true), fmtTime(sumB, true),
		float64(sumB)/float64(sumA))
}

// fig15 reproduces Figure 15: execution times normalized to the smallest
// document (linear scaling shows as the size ratio).
func fig15(scales []float64) {
	fmt.Printf("\n== Figure 15: scalability (normalized to %s) ==\n", mb(scales[0]))
	engines := make([]*core.Engine, len(scales))
	for i, f := range scales {
		engines[i] = engineFor(core.DefaultConfig(), xmark.NewStoreContainer("auction.xml", f, *seedFlag))
	}
	fmt.Printf("%-4s", "Q")
	for _, f := range scales {
		fmt.Printf(" %14s", mb(f))
	}
	fmt.Println("   (entries: seconds, xbase)")
	for q := 1; q <= 20; q++ {
		query := xmark.Query(q)
		var base time.Duration
		fmt.Printf("Q%-3d", q)
		for i := range scales {
			d, ok := bestOf(func() error { _, err := engines[i].Query(query); return err })
			if i == 0 {
				base = d
			}
			if !ok {
				fmt.Printf(" %14s", "DNF")
			} else {
				fmt.Printf(" %7.3fs %4.0fx", d.Seconds(), float64(d)/float64(base))
			}
		}
		fmt.Println()
	}
}

// fig16 reproduces Figure 16: per-query times normalized to MXQ = 1.
func fig16(scales []float64) {
	fmt.Println("\n== Figure 16: evaluation time relative to MXQ (M = 1.0) ==")
	for _, f := range scales {
		cont := xmark.NewStoreContainer("auction.xml", f, *seedFlag)
		eng := engineFor(core.DefaultConfig(), cont)
		oracle := naive.New()
		oracle.LoadContainer("auction.xml", cont)
		fmt.Printf("\n-- %s --\n%-4s %8s %10s\n", mb(f), "Q", "M", "NAIVE")
		for q := 1; q <= 20; q++ {
			query := xmark.Query(q)
			dm, okM := bestOf(func() error { _, err := eng.Query(query); return err })
			dn, okN := bestOf(func() error { _, err := oracle.Query(query); return err })
			rel := "DNF"
			if okM && okN {
				rel = fmt.Sprintf("%.1f", float64(dn)/float64(dm))
			}
			_ = okM
			fmt.Printf("Q%-3d %8.1f %10s\n", q, 1.0, rel)
		}
	}
}

// shred reproduces the §6 shredding/serialization experiment: document
// loading and full-document copy serialization at growing sizes.
func shred(scales []float64) {
	fmt.Println("\n== Shredding and serialization ==")
	fmt.Printf("%-10s %12s %12s %12s %10s\n", "size", "gen+shred", "serialize", "tuples", "MB")
	for _, f := range scales {
		start := time.Now()
		cont := xmark.NewStoreContainer("auction.xml", f, *seedFlag)
		shredTime := time.Since(start)
		var sb strings.Builder
		start = time.Now()
		if err := store.Serialize(&sb, cont, 0); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return
		}
		serTime := time.Since(start)
		fmt.Printf("%-10s %11.3fs %11.3fs %12d %10.1f\n",
			mb(f), shredTime.Seconds(), serTime.Seconds(), cont.Len(),
			float64(sb.Len())/1e6)
	}
}

// plans reproduces the §4.1 plan statistics: "86 relational algebra
// operators on average, of which 9 are joins".
func plans(scales []float64) {
	fmt.Println("\n== Plan statistics (§4.1) ==")
	cont := xmark.NewStoreContainer("auction.xml", scales[0], *seedFlag)
	eng := engineFor(core.DefaultConfig(), cont)
	fmt.Printf("%-4s %6s %6s\n", "Q", "ops", "joins")
	totOps, totJoins := 0, 0
	for q := 1; q <= 20; q++ {
		ops, joins, err := eng.PlanStats(xmark.Query(q))
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return
		}
		totOps += ops
		totJoins += joins
		fmt.Printf("Q%-3d %6d %6d\n", q, ops, joins)
	}
	fmt.Printf("avg  %6.1f %6.1f   (paper: 86 operators, 9 joins)\n",
		float64(totOps)/20, float64(totJoins)/20)
}
