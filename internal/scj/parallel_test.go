package scj

import (
	"math/rand"
	"sync/atomic"
	"testing"

	"mxq/internal/store"
	"mxq/internal/testutil"
)

// ParallelStep is StepBlocks drawing its workers from sl, flattened.
func ParallelStep(sl Slots, c *store.Container, ctx Pairs, axis Axis, test Test, v Variant, workers, threshold int, st *Stats) Pairs {
	return StepBlocks(sl, c, ctx, axis, test, v, workers, threshold, st).Pairs(nil)
}

// TestParallelStepMatchesSerial is the core contract of the parallel
// staircase join: for every axis, variant, node test, worker count and
// threshold, ParallelStep must produce exactly Step's result — same
// pairs, same (pre, iter) order.
func TestParallelStepMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	slots := testutil.ForkPool(t, 4)
	tests := []Test{
		{Kind: TestNode},
		{Kind: TestElem},
		{Kind: TestElem, Name: "b"},
		{Kind: TestElem, Name: "nosuch"},
		{Kind: TestText},
	}
	for trial := 0; trial < 30; trial++ {
		c := randomTree(rng, 150)
		ctx := randomCtx(rng, c, 6)
		if ctx.Len() == 0 {
			continue
		}
		for _, axis := range allAxes {
			for _, v := range allVariants {
				for _, test := range tests {
					want := Step(c, ctx, axis, test, v, nil)
					for _, workers := range []int{2, 4} {
						for _, th := range []int{1, 4} {
							got := ParallelStep(slots, c, ctx, axis, test, v, workers, th, nil)
							if !pairsEqual(got, want) {
								t.Fatalf("trial %d axis %v variant %d test %+v workers %d threshold %d:\n got  %s\n want %s\nctx %s",
									trial, axis, v, test, workers, th, pairsString(got), pairsString(want), pairsString(ctx))
							}
						}
					}
				}
			}
		}
	}
}

// Nested context nodes of the same iteration are where serial pruning
// fires; the parallel decompositions must eliminate the duplicates the
// chunk cuts reintroduce.
func TestParallelStepNestedSameIterContexts(t *testing.T) {
	c := shred(t, paperDoc)
	// a(0) > b(1) > c(2) > d(3), e(4); f(5) > g(6), h(7) > i(8), j(9)
	ctx := Pairs{Pre: []int32{0, 1, 2, 5}, Iter: []int32{1, 1, 1, 1}}
	slots := testutil.ForkPool(t, 5)
	for _, axis := range []Axis{Descendant, DescendantOrSelf, Child, Following, Preceding} {
		want := Step(c, ctx, axis, Test{Kind: TestNode}, LoopLifted, nil)
		for workers := 2; workers <= 5; workers++ {
			got := ParallelStep(slots, c, ctx, axis, Test{Kind: TestNode}, LoopLifted, workers, 1, nil)
			if !pairsEqual(got, want) {
				t.Errorf("axis %v workers %d:\n got  %s\n want %s", axis, workers, pairsString(got), pairsString(want))
			}
		}
	}
}

// Stats must aggregate across workers: emitted equals the result size
// and the touch counter stays positive for non-empty scans.
func TestParallelStepStats(t *testing.T) {
	c := shred(t, paperDoc)
	ctx := Pairs{Pre: []int32{0}, Iter: []int32{1}}
	var st Stats
	out := ParallelStep(testutil.ForkPool(t, 4), c, ctx, Descendant, Test{Kind: TestElem}, LoopLifted, 4, 1, &st)
	if st.Emitted != int64(out.Len()) {
		t.Errorf("emitted %d, want %d", st.Emitted, out.Len())
	}
	if st.Touched == 0 {
		t.Error("parallel step touched nothing")
	}
}

func TestSplitPairsByPre(t *testing.T) {
	cases := []struct {
		name   string
		pre    []int32
		chunks int
		want   int // expected chunk count
	}{
		{"empty", nil, 4, 0},
		{"single run stays whole", []int32{7, 7, 7, 7}, 4, 1},
		{"boundary exactly on chunk edge", []int32{1, 1, 2, 2}, 2, 2},
		{"more chunks than rows", []int32{1, 2}, 8, 2},
	}
	for _, tc := range cases {
		ctx := Pairs{Pre: tc.pre, Iter: make([]int32, len(tc.pre))}
		chunks := splitPairsByPre(ctx, tc.chunks)
		if len(chunks) != tc.want {
			t.Errorf("%s: got %d chunks, want %d", tc.name, len(chunks), tc.want)
		}
		total := 0
		for i, ch := range chunks {
			total += ch.Len()
			if i > 0 && ch.Len() > 0 && chunks[i-1].Len() > 0 &&
				ch.Pre[0] == chunks[i-1].Pre[chunks[i-1].Len()-1] {
				t.Errorf("%s: pre run split across chunks %d and %d", tc.name, i-1, i)
			}
		}
		if total != ctx.Len() {
			t.Errorf("%s: chunks cover %d rows, want %d", tc.name, total, ctx.Len())
		}
	}
}

func TestMergePairsExportedDedups(t *testing.T) {
	a := Pairs{Pre: []int32{1, 3}, Iter: []int32{1, 1}}
	b := Pairs{Pre: []int32{1, 2}, Iter: []int32{1, 1}}
	got := MergePairs(a, b)
	want := Pairs{Pre: []int32{1, 2, 3}, Iter: []int32{1, 1, 1}}
	if !pairsEqual(got, want) {
		t.Errorf("got %s want %s", pairsString(got), pairsString(want))
	}
}

// A context-partitioned step asks the budget before it flattens a
// chunk's blocks and before every merge: under half of what its output
// takes, the hook refuses and the step comes back empty instead of
// allocating the merged list unaccounted.
func TestParByContextBudgetRefusesMerge(t *testing.T) {
	c := randomTree(rand.New(rand.NewSource(5)), 4000)
	var ctx Pairs
	for pre := int32(0); pre < int32(c.Len()); pre++ {
		if c.Kind[pre] == store.KindElem {
			ctx.Pre, ctx.Iter = append(ctx.Pre, pre), append(ctx.Iter, 1)
		}
	}
	slots := testutil.ForkPool(t, 4)
	full := ParallelStep(slots, c, ctx, Child, Test{Kind: TestNode}, LoopLifted, 4, 1, nil)
	if full.Len() < 1000 {
		t.Fatalf("step emits only %d pairs", full.Len())
	}
	var used, asked atomic.Int64
	var over atomic.Bool
	limit := 8 * int64(full.Len()) / 2
	st := &Stats{Stop: over.Load, Charge: func(n int64) bool {
		asked.Add(n)
		if used.Add(n) > limit {
			over.Store(true)
		}
		return !over.Load()
	}}
	live := liveBlocks.Load()
	got := StepBlocks(slots, c, ctx, Child, Test{Kind: TestNode}, LoopLifted, 4, 1, st)
	if got.Len() != 0 {
		t.Errorf("refused step returned %d of %d pairs", got.Len(), full.Len())
	}
	if !over.Load() || asked.Load() <= 8*int64(full.Len())/2 {
		t.Errorf("budget saw %d bytes for a %d-pair step", asked.Load(), full.Len())
	}
	if got.Release(); liveBlocks.Load() != live {
		t.Errorf("%d blocks not returned", liveBlocks.Load()-live)
	}
}
