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
func thetaNestedLoop[T float64 | string](op xqt.CmpOp, liter []int64, lv []T, riter []int64, rv []T, p1, p2 []int64) ([]int64, []int64) {
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
func thetaSide[T float64 | string](rng *rand.Rand, n int, order string, gen func(*rand.Rand) T) ([]int64, []T) {
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

func checkThetaSweep[T float64 | string](t *testing.T, name string, liter []int64, lv []T, riter []int64, rv []T) {
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
// quadratic reference — float and string keys with duplicates, ±0 and
// ±Inf, all four operators, empty sides, right sides around the bitmap's
// word boundaries, every iter order on either side, hit rates 0 and 1.
func TestThetaSweepMatchesNestedLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	floats := func(rng *rand.Rand) float64 {
		return []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), 1, 1, 2.5, -3, 7, 1e9}[rng.Intn(10)]
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

// TestThetaSweepAbortsTyped: a budget that trips on the pair output and a
// context cancelled mid-sweep surface as the typed error through Run,
// and the execution's arena goes back.
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

	e := NewExec(nil, nil)
	e.Mem = NewMemBudget(1 << 20)
	_, err := e.Run(j)
	var xe *xqerr.Error
	if !errors.As(err, &xe) || xe.Code != xqerr.CodeResourceLimit {
		t.Fatalf("over-budget theta join: %v", err)
	}
	e.Release()

	// Run asks Err five times before it applies the join (its own entry
	// check, then entry and exit of either literal input): the fifth
	// answer is the last "not cancelled", so the sweep's poll is the
	// first to see the cancellation
	e = NewExec(nil, nil)
	e.Ctx = &cancelAfter{Context: context.Background(), asks: 5, done: make(chan struct{})}
	if _, err := e.Run(j); !errors.Is(err, context.Canceled) || e.Stats.ThetaPairs != 0 {
		t.Fatalf("theta join cancelled mid-sweep: %v, %d pairs emitted", err, e.Stats.ThetaPairs)
	}
	e.Release()
	if LiveArenas() != base {
		t.Fatalf("LiveArenas = %d, want %d", LiveArenas(), base)
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
