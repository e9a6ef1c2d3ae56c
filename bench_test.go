package mxq

// Benchmarks regenerating the paper's evaluation artifacts (§6) as
// testing.B benchmarks; one benchmark family per table/figure. The
// cmd/xmarkbench harness prints the corresponding tables at larger scales
// and with best-of-N methodology.
//
// Scale factors are kept small here so `go test -bench=.` terminates
// quickly; the shapes (who wins, by what factor) already show at these
// sizes.

import (
	"fmt"
	"io"
	"strings"
	"testing"

	"mxq/internal/core"
	"mxq/internal/naive"
	"mxq/internal/ralg"
	"mxq/internal/sched"
	"mxq/internal/scj"
	"mxq/internal/store"
	"mxq/internal/xmark"
)

const (
	benchFactor = 0.005
	benchSeed   = 42
)

var (
	benchCont  *store.Container
	benchConts = map[float64]*store.Container{}
)

func contFor(f float64) *store.Container {
	if c, ok := benchConts[f]; ok {
		return c
	}
	c := xmark.NewStoreContainer("auction.xml", f, benchSeed)
	benchConts[f] = c
	return c
}

func engineWith(cfg core.Config, f float64) *core.Engine {
	e := core.New(cfg)
	e.LoadContainer("auction.xml", contFor(f))
	return e
}

func runQuery(b *testing.B, eng *core.Engine, q string) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Query(q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable1_MXQ regenerates the MXQ column of Table 1.
func BenchmarkTable1_MXQ(b *testing.B) {
	eng := engineWith(core.DefaultConfig(), benchFactor)
	for q := 1; q <= 20; q++ {
		b.Run(fmt.Sprintf("Q%02d", q), func(b *testing.B) {
			runQuery(b, eng, xmark.Query(q))
		})
	}
}

// BenchmarkTable1_Naive regenerates the comparator column of Table 1
// (the naive DOM interpreter stands in for eXist/Galax/X-Hive/BDB).
func BenchmarkTable1_Naive(b *testing.B) {
	oracle := naive.New()
	oracle.LoadContainer("auction.xml", contFor(benchFactor))
	for q := 1; q <= 20; q++ {
		b.Run(fmt.Sprintf("Q%02d", q), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := oracle.Query(xmark.Query(q)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig12_Staircase regenerates Figure 12: loop-lifted vs
// iterative staircase join (plus nametest pushdown) on the
// path-intensive queries.
func BenchmarkFig12_Staircase(b *testing.B) {
	mk := func(child, desc scj.Variant, nametest bool) core.Config {
		c := core.DefaultConfig()
		c.Compiler.ChildVariant = child
		c.Compiler.DescVariant = desc
		c.Compiler.NametestPushdown = nametest
		return c
	}
	configs := []struct {
		name string
		cfg  core.Config
	}{
		{"iter_iter", mk(scj.Iterative, scj.Iterative, false)},
		{"iter_ll", mk(scj.Iterative, scj.LoopLifted, false)},
		{"ll_iter", mk(scj.LoopLifted, scj.Iterative, false)},
		{"ll_ll", mk(scj.LoopLifted, scj.LoopLifted, false)},
		{"ll_nametest", mk(scj.LoopLifted, scj.LoopLifted, true)},
	}
	for _, c := range configs {
		eng := engineWith(c.cfg, benchFactor)
		for _, q := range []int{1, 2, 6, 7, 13, 14, 15, 19} {
			b.Run(fmt.Sprintf("%s/Q%02d", c.name, q), func(b *testing.B) {
				runQuery(b, eng, xmark.Query(q))
			})
		}
	}
}

// BenchmarkFig13_JoinRecognition regenerates Figure 13: the join queries
// Q8–Q12 with the theta-join plans vs the Cartesian-product plans.
func BenchmarkFig13_JoinRecognition(b *testing.B) {
	join := engineWith(core.DefaultConfig(), benchFactor)
	crossCfg := core.DefaultConfig()
	crossCfg.Compiler.JoinRecognition = false
	cross := engineWith(crossCfg, benchFactor)
	for q := 8; q <= 12; q++ {
		b.Run(fmt.Sprintf("join/Q%02d", q), func(b *testing.B) {
			runQuery(b, join, xmark.Query(q))
		})
		b.Run(fmt.Sprintf("cross/Q%02d", q), func(b *testing.B) {
			runQuery(b, cross, xmark.Query(q))
		})
	}
}

// BenchmarkFig14_SortReduction regenerates Figure 14: the order-aware
// peephole optimizer vs the non-order-preserving baseline.
func BenchmarkFig14_SortReduction(b *testing.B) {
	aware := engineWith(core.DefaultConfig(), benchFactor)
	noCfg := core.DefaultConfig()
	noCfg.OrderAware = false
	baseline := engineWith(noCfg, benchFactor)
	for _, q := range []int{1, 2, 3, 8, 10, 19, 20} {
		b.Run(fmt.Sprintf("aware/Q%02d", q), func(b *testing.B) {
			runQuery(b, aware, xmark.Query(q))
		})
		b.Run(fmt.Sprintf("baseline/Q%02d", q), func(b *testing.B) {
			runQuery(b, baseline, xmark.Query(q))
		})
	}
}

// BenchmarkFig15_Scalability regenerates Figure 15: selected queries
// across document sizes (linear scaling expected; Q11/Q12 quadratic).
func BenchmarkFig15_Scalability(b *testing.B) {
	for _, f := range []float64{0.002, 0.01, 0.05} {
		eng := engineWith(core.DefaultConfig(), f)
		for _, q := range []int{1, 6, 8, 11, 15, 20} {
			b.Run(fmt.Sprintf("f%g/Q%02d", f, q), func(b *testing.B) {
				runQuery(b, eng, xmark.Query(q))
			})
		}
	}
}

// BenchmarkPrepared measures the prepared-statement API: Prepare once,
// then bind+execute per call (`make bench-smoke` runs this family once
// in CI). What a cache miss costs on top — parse, compile, optimize —
// is the repository benchmark's compile-cold workload.
func BenchmarkPrepared(b *testing.B) {
	warm := engineWith(core.DefaultConfig(), benchFactor)
	for _, q := range []int{1, 2, 5, 8, 13, 17, 20} {
		b.Run(fmt.Sprintf("Q%02d", q), func(b *testing.B) {
			p, err := warm.Prepare(xmark.Query(q))
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := p.Execute(nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	// a parameterized statement: bindings change per execution, the plan
	// does not
	const paramQ = `declare variable $min external;
		for $a in /site/closed_auctions/closed_auction
		where number($a/price) > $min return $a/price/text()`
	b.Run("bind_execute", func(b *testing.B) {
		p, err := warm.Prepare(paramQ)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			bind := core.Bindings{"min": ralg.BindFloats(float64(i % 100))}
			if _, err := p.Execute(bind); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkSchedOversubscribed measures the global query scheduler
// under 4× oversubscription: 4×GOMAXPROCS goroutines execute the same
// prepared statement against a parallel engine under a shared
// scheduler (bounded slot pool, cost-derived budgets), so the figure is
// the scheduled path's cost per execution (`make bench-smoke` runs it
// once in CI).
func BenchmarkSchedOversubscribed(b *testing.B) {
	cfg := core.ParallelConfig()
	cfg.Scheduler = sched.New(sched.Config{})
	p, err := engineWith(cfg, benchFactor).Prepare(xmark.Query(1))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.SetParallelism(4) // 4× GOMAXPROCS concurrent executions
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := p.Execute(nil); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

// BenchmarkShred regenerates the §6 shredding experiment.
func BenchmarkShred(b *testing.B) {
	var xml strings.Builder
	if err := xmark.WriteXML(&xml, benchFactor, benchSeed); err != nil {
		b.Fatal(err)
	}
	data := xml.String()
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := store.Shred("x.xml", strings.NewReader(data), false); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSerialize regenerates the §6 serialization experiment (a full
// document copy written out again).
func BenchmarkSerialize(b *testing.B) {
	cont := contFor(benchFactor)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := store.Serialize(io.Discard, cont, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSkipping regenerates the Figures 1–3 micro-measurements: the
// staircase join touches |result| + |context| tuples regardless of the
// document size around the context (skipping).
func BenchmarkSkipping(b *testing.B) {
	bld := store.NewBuilder("big.xml")
	bld.StartDoc()
	bld.StartElem("root")
	for i := 0; i < 50000; i++ {
		bld.StartElem("filler")
		bld.Text("x")
		bld.End()
	}
	bld.StartElem("target")
	for i := 0; i < 10; i++ {
		bld.StartElem("inner")
		bld.End()
	}
	bld.End()
	for i := 0; i < 50000; i++ {
		bld.StartElem("filler")
		bld.Text("y")
		bld.End()
	}
	bld.End()
	bld.End()
	cont, err := bld.Done()
	if err != nil {
		b.Fatal(err)
	}
	var target int32
	for p := int32(0); p < int32(cont.Len()); p++ {
		if cont.Kind[p] == store.KindElem && cont.NameOf(p) == "target" {
			target = p
		}
	}
	ctx := scj.Pairs{Pre: []int32{target}, Iter: []int32{1}}
	b.Run("descendant_with_skipping", func(b *testing.B) {
		var st scj.Stats
		for i := 0; i < b.N; i++ {
			scj.Step(cont, ctx, scj.Descendant, scj.Test{Kind: scj.TestNode}, scj.LoopLifted, &st)
		}
		b.ReportMetric(float64(st.Touched)/float64(b.N), "tuples-touched/op")
	})
}
