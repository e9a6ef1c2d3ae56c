package ralg

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strconv"
	"testing"

	"mxq/internal/xqerr"
	"mxq/internal/xqt"
)

// thetaNestedLoop is the quadratic definition of the existential theta
// join over reduced sides — every (iter1, iter2) whose keys satisfy op,
// deduplicated, in [iter1, iter2] order — and the nested-loop plan the
// hit-rate sweep measures the kernel against.
func thetaNestedLoop[T int64 | float64 | string](op xqt.CmpOp, liter []int64, lv []T, riter []int64, rv []T, p1, p2 []int64) ([]int64, []int64) {
	for i, a := range lv {
		for j, b := range rv {
			if thetaHolds(a, b, op) {
				p1, p2 = append(p1, liter[i]), append(p2, riter[j])
			}
		}
	}
	return p1, p2
}

// sortedPairs establishes [iter1, iter2] order and drops duplicates.
func sortedPairs(p1, p2 []int64) [][2]int64 {
	out := make([][2]int64, len(p1))
	for i := range out {
		out[i] = [2]int64{p1[i], p2[i]}
	}
	slices.SortFunc(out, func(a, b [2]int64) int { return slices.Compare(a[:], b[:]) })
	return slices.Compact(out)
}

// thetaSide is one reduced join side: unique iters in the given order
// and NaN-free keys drawn by gen.
func thetaSide[T int64 | float64 | string](rng *rand.Rand, n int, order string, gen func(*rand.Rand) T) ([]int64, []T) {
	iters, vals := make([]int64, n), make([]T, n)
	for i := range iters {
		iters[i], vals[i] = int64(3*i+1), gen(rng)
	}
	switch order {
	case "descending":
		slices.Reverse(iters)
	case "shuffled":
		rng.Shuffle(n, func(i, j int) { iters[i], iters[j] = iters[j], iters[i] })
	}
	return iters, vals
}

func checkThetaSweep[T int64 | float64 | string](t *testing.T, name string, liter []int64, lv []T, riter []int64, rv []T) {
	t.Helper()
	for _, op := range []xqt.CmpOp{xqt.CmpLt, xqt.CmpLe, xqt.CmpGt, xqt.CmpGe} {
		e := NewExec(nil, nil)
		p1, p2 := existThetaJoin(e, &ExistJoin{Cmp: op}, liter, lv, riter, rv)
		got := make([][2]int64, len(p1))
		for i := range got {
			got[i] = [2]int64{p1[i], p2[i]}
		}
		want := sortedPairs(thetaNestedLoop(op, liter, lv, riter, rv, nil, nil))
		if e.Stats.ThetaPairs != int64(len(want)) {
			t.Fatalf("%s %v: ThetaPairs = %d, want %d", name, op, e.Stats.ThetaPairs, len(want))
		}
		e.Release()
		if !slices.Equal(got, want) {
			t.Fatalf("%s %v (nl=%d nr=%d): %d pairs, want %d", name, op, len(liter), len(riter), len(got), len(want))
		}
	}
}

// TestThetaSweepMatchesNestedLoop: the rank-space sweep against the
// quadratic reference — float, integer and string keys with duplicates,
// ±0 and ±Inf, integers around ±2^53 and the int64 limits, all four
// operators, empty sides, right sides around the bitmap's word
// boundaries, every iter order on either side, hit rates 0 and 1.
func TestThetaSweepMatchesNestedLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	floats := func(rng *rand.Rand) float64 {
		return []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), 1, 1, 2.5, -3, 7, 1e9}[rng.Intn(10)]
	}
	ints := func(rng *rand.Rand) int64 {
		return past253[rng.Intn(len(past253))]
	}
	strs := func(rng *rand.Rand) string { return strconv.Itoa(rng.Intn(40)) }
	orders := []string{"ascending", "descending", "shuffled"}
	for _, nr := range []int{0, 1, 63, 64, 65, 4097} {
		for _, nl := range []int{0, 1, 7, 130} {
			for _, lo := range orders {
				for _, ro := range orders {
					if nr > 65 && lo != ro { // the reference sorts up to nl*nr pairs: three order pairings suffice up here
						continue
					}
					name := fmt.Sprintf("%s/%s", lo, ro)
					liter, lf := thetaSide(rng, nl, lo, floats)
					riter, rf := thetaSide(rng, nr, ro, floats)
					checkThetaSweep(t, "float "+name, liter, lf, riter, rf)
					_, ls := thetaSide(rng, nl, lo, strs)
					_, rs := thetaSide(rng, nr, ro, strs)
					checkThetaSweep(t, "string "+name, liter, ls, riter, rs)
					_, li := thetaSide(rng, nl, lo, ints)
					_, ri := thetaSide(rng, nr, ro, ints)
					checkThetaSweep(t, "int "+name, liter, li, riter, ri)
				}
			}
		}
	}
	// hit rates 0 % and 100 %: every left key below, then above, the right side
	low := func(*rand.Rand) float64 { return -1 }
	high := func(rng *rand.Rand) float64 { return 10 + float64(rng.Intn(3)) }
	liter, lv := thetaSide(rng, 130, "ascending", low)
	riter, rv := thetaSide(rng, 257, "ascending", high)
	checkThetaSweep(t, "all-or-nothing", liter, lv, riter, rv)
	checkThetaSweep(t, "nothing-or-all", riter, rv, liter, lv)
}

// past253 are xs:integer keys that one xs:double cannot tell apart:
// neighbours around ±2^53 and the int64 limits.
var past253 = []int64{0, 1<<53 - 1, 1 << 53, 1<<53 + 1, 1<<53 + 2, -(1 << 53), -(1 << 53) - 1, math.MaxInt64, math.MaxInt64 - 1, math.MinInt64, math.MinInt64 + 1}

// TestThetaSweepAbortsTyped: a budget that trips on the pair output (in
// count mode, on the index) and a context cancelled mid-sweep surface as
// the typed error through Run, and the execution's arena goes back.
func TestThetaSweepAbortsTyped(t *testing.T) {
	const n = 3000
	vals := make([]xqt.Item, n)
	for i := range vals {
		vals[i] = xqt.Double(float64(i))
	}
	side := seqTable(identity64(n), identity64(n), vals)
	j := &ExistJoin{Cmp: xqt.CmpLt, LIter: "iter", LItem: "item", RIter: "iter", RItem: "item", Out1: "a", Out2: "b"}
	j.SetInput(0, &Lit{Tab: side})
	j.SetInput(1, &Lit{Tab: side})
	base := LiveArenas()

	for _, mode := range []struct {
		count bool
		limit int64
	}{{false, 1 << 20}, {true, 64 << 10}} {
		j.Count = mode.count
		e := NewExec(nil, nil)
		e.Mem = NewMemBudget(mode.limit)
		_, err := e.Run(j)
		var xe *xqerr.Error
		if !errors.As(err, &xe) || xe.Code != xqerr.CodeResourceLimit {
			t.Fatalf("over-budget theta join (count %v): %v", mode.count, err)
		}
		e.Release()

		// RunSchedule asks Err three times before it applies the join (on
		// entry, then after either literal input): the third answer is the
		// last "not cancelled" and closes Done, so the poll before the
		// join is the first to see the cancellation
		e = NewExec(nil, nil)
		e.Ctx = &cancelAfter{Context: context.Background(), asks: 3, done: make(chan struct{})}
		if _, err := e.Run(j); !errors.Is(err, context.Canceled) || e.Stats.ThetaPairs != 0 {
			t.Fatalf("theta join (count %v) cancelled between operators: %v, %d pairs emitted", mode.count, err, e.Stats.ThetaPairs)
		}
		e.Release()
		// with no poll before it, the sweep's own poll sees it
		e, cancelled := NewExec(nil, nil), make(chan struct{})
		close(cancelled)
		e.done = cancelled
		if _, err := e.apply(Op{Plan: j}, []*Table{side, side}); err != nil || e.Stats.ThetaPairs != 0 {
			t.Fatalf("theta join (count %v) cancelled mid-sweep: %v, %d pairs emitted", mode.count, err, e.Stats.ThetaPairs)
		}
		e.Release()
		if LiveArenas() != base {
			t.Fatalf("count %v: LiveArenas = %d, want %d", mode.count, LiveArenas(), base)
		}
	}
}

// TestExistJoinCountMode: on random inputs the count mode is Aggr(count
// part Out1) over the pair mode, for every comparison, over double,
// integer (around 2^53) and string keys (typed kernels) and mixed ones
// (the per-pair loop), with NaN, several rows per left iter, and left
// iters out of order.
func TestExistJoinCountMode(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	gens := map[string]func() xqt.Item{
		"double":  func() xqt.Item { return xqt.Double([]float64{-3, 1, 2, 2.5, 7, math.NaN()}[rng.Intn(6)]) },
		"integer": func() xqt.Item { return xqt.Int(past253[rng.Intn(5)]) },
		"string":  func() xqt.Item { return xqt.Str(strconv.Itoa(rng.Intn(12))) },
		"mixed": func() xqt.Item {
			if rng.Intn(2) == 0 {
				return xqt.Int(int64(rng.Intn(12)))
			}
			return xqt.Str(strconv.Itoa(rng.Intn(12)))
		},
	}
	side := func(n int, gen func() xqt.Item, shuffled bool) *Table {
		iters, poss, items := make([]int64, n), make([]int64, n), make([]xqt.Item, n)
		iter := int64(1)
		for i := range items {
			iters[i], poss[i], items[i] = iter, int64(i+1), gen()
			if rng.Intn(3) > 0 {
				iter++
			}
		}
		if shuffled {
			rng.Shuffle(n, func(a, b int) { iters[a], iters[b] = iters[b], iters[a] })
		}
		return seqTable(iters, poss, items)
	}
	for name, gen := range gens {
		for _, n := range []int{0, 1, 40, 150} {
			for _, shuffled := range []bool{false, true} {
				l, r := side(n, gen, shuffled), side(n+70, gen, false)
				for op := xqt.CmpEq; op <= xqt.CmpGe; op++ {
					pairs := &ExistJoin{Cmp: op, LIter: "iter", LItem: "item", RIter: "iter", RItem: "item", Out1: "a", Out2: "b"}
					pairs.SetInput(0, &Lit{Tab: l})
					pairs.SetInput(1, &Lit{Tab: r})
					want := &Aggr{Part: "a", Op: AggCount, Out: "n"}
					want.SetInput(0, pairs)
					counted := *pairs
					counted.Count = true
					got, w := run(t, &counted), run(t, want)
					same := got.N == w.N
					for i := 0; same && i < got.N; i++ {
						same = got.Ints("a")[i] == w.Ints("a")[i] && xqt.Int(got.Ints("b")[i]) == w.Col("n").At(i)
					}
					if !same {
						t.Fatalf("%s %v (n=%d, shuffled %v): count mode\n%v\nwant\n%v", name, op, n, shuffled, got, w)
					}
				}
			}
		}
	}
}

// cancelAfter is a context that cancels itself while answering its
// asks-th Err call (which still reports nil).
type cancelAfter struct {
	context.Context
	asks int
	done chan struct{}
}

func (c *cancelAfter) Done() <-chan struct{} { return c.done }

func (c *cancelAfter) Err() error {
	if c.asks--; c.asks > 0 {
		return nil
	}
	if c.asks == 0 {
		close(c.done)
		return nil
	}
	return context.Canceled
}

// thetaBenchSides builds nl x nr reduced float sides on which l < r
// holds for the given share of the pairs (left keys uniform on [0, 1),
// right keys uniform on [s, s+1)).
func thetaBenchSides(nl, nr int, hit float64) (liter []int64, lv []float64, riter []int64, rv []float64) {
	s := 1 - math.Sqrt(2*(1-hit))
	if hit <= 0.5 {
		s = math.Sqrt(2*hit) - 1
	}
	rng := rand.New(rand.NewSource(int64(nl)))
	liter, lv = thetaSide(rng, nl, "ascending", func(rng *rand.Rand) float64 { return rng.Float64() })
	riter, rv = thetaSide(rng, nr, "ascending", func(rng *rand.Rand) float64 { return s + rng.Float64() })
	return
}

// BenchmarkThetaHitRate is the hit-rate sweep behind the retired
// choose-plan rule (docs/executor.md): the rank-space sweep against the
// nested-loop plan at its cheapest — output buffers sized by an oracle,
// nothing built, nl*nr comparisons — from 16x16 to 4096x4096 rows at
// hit rates 1 % to 100 %.
func BenchmarkThetaHitRate(b *testing.B) {
	for _, n := range []int{16, 64, 256, 1024, 4096} {
		for _, hit := range []float64{0.01, 0.05, 0.25, 0.50, 1.00} {
			liter, lv, riter, rv := thetaBenchSides(n, n, hit)
			e := NewExec(nil, nil)
			join := &ExistJoin{Cmp: xqt.CmpLt}
			p1, p2 := existThetaJoin(e, join, liter, lv, riter, rv)
			pairs := len(p1)
			r1, r2 := thetaNestedLoop(xqt.CmpLt, liter, lv, riter, rv, nil, nil)
			if !slices.Equal(p1, r1) || !slices.Equal(p2, r2) {
				b.Fatalf("n=%d hit=%v: kernels disagree", n, hit)
			}
			e.Release()
			name := fmt.Sprintf("n=%d/hit=%d%%", n, int(100*hit))
			b.Run("sweep/"+name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					existThetaJoin(e, join, liter, lv, riter, rv)
					e.Release()
				}
				b.ReportMetric(float64(pairs), "pairs")
			})
			b.Run("nested/"+name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					thetaNestedLoop(xqt.CmpLt, liter, lv, riter, rv, r1[:0], r2[:0])
				}
				b.ReportMetric(float64(pairs), "pairs")
			})
		}
	}
}
