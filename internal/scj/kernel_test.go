package scj

import (
	"fmt"
	"math/rand"
	"runtime/debug"
	"sync/atomic"
	"testing"

	"mxq/internal/store"
	"mxq/internal/testutil"
	"mxq/internal/xmark"
)

// checkStep compares one step, in every variant and through every entry
// (Step, ParallelStep on sl at workers {1, 4} x threshold {1, default}),
// against the oracle, and checks that every block went back to the pool.
func checkStep(t *testing.T, sl Slots, label string, c *store.Container, ctx Pairs, axis Axis, test Test) {
	t.Helper()
	checkStepWant(t, sl, label, c, ctx, axis, test, naiveAxis(c, ctx, axis, test))
}

func checkStepWant(t *testing.T, sl Slots, label string, c *store.Container, ctx Pairs, axis Axis, test Test, want Pairs) {
	t.Helper()
	live := liveBlocks.Load()
	for _, v := range allVariants {
		var st Stats
		got := Step(c, ctx, axis, test, v, &st)
		if !pairsEqual(got, want) {
			t.Fatalf("%s %v/%v test=%+v: %d pairs, want %d\nctx=%s", label, axis, v, test, got.Len(), want.Len(), clip(pairsString(ctx)))
		}
		if st.Emitted != int64(want.Len()) {
			t.Fatalf("%s %v/%v: Emitted = %d, want %d", label, axis, v, st.Emitted, want.Len())
		}
		for _, workers := range []int{1, 4} {
			for _, th := range []int{1, 2048} {
				if p := ParallelStep(sl, c, ctx, axis, test, v, workers, th, nil); !pairsEqual(p, want) {
					t.Fatalf("%s %v/%v test=%+v workers=%d threshold=%d: %d pairs, want %d", label, axis, v, test, workers, th, p.Len(), want.Len())
				}
			}
		}
	}
	if now := liveBlocks.Load(); now != live {
		t.Fatalf("%s %v: %d blocks left outside the pool", label, axis, now-live)
	}
}

func clip(s string) string {
	if len(s) > 400 {
		return s[:400] + "..."
	}
	return s
}

// wideDoc builds doc > r > n x <x/>: child::x and descendant::x of r
// emit exactly n pairs per iteration, whichever kernel runs them.
func wideDoc(t testing.TB, n int) *store.Container {
	b := store.NewBuilder("wide.xml")
	b.StartDoc()
	b.StartElem("r")
	for i := 0; i < n; i++ {
		b.StartElem("x")
		b.End()
	}
	b.End()
	b.End()
	c, err := b.Done()
	if err != nil {
		t.Fatal(err)
	}
	c.BuildIndexes()
	return c
}

// TestBlockBoundaries emits one pair short of a block, exactly one
// block, one pair more and several blocks, from one and from two
// iterations, on every axis that can produce that many pairs.
func TestBlockBoundaries(t *testing.T) {
	slots := testutil.ForkPool(t, 4)
	for _, n := range []int{blockCap - 1, blockCap, blockCap + 1, 2*blockCap + blockCap/2 + 3} {
		c := wideDoc(t, n)
		first, last := int32(2), int32(1+n)
		for _, tc := range []struct {
			axis Axis
			pre  int32
		}{
			{Child, 1}, {Descendant, 1}, {DescendantOrSelf, 1}, {Descendant, 0},
			{FollowingSibling, first}, {Following, first},
			{PrecedingSibling, last}, {Preceding, last},
		} {
			for _, iters := range [][]int32{{7}, {3, 9}} {
				ctx := Pairs{}
				for _, it := range iters {
					ctx.append(tc.pre, it)
				}
				for _, test := range []Test{{Kind: TestElem, Name: "x"}} {
					checkStep(t, slots, fmt.Sprintf("n=%d iters=%v", n, iters), c, ctx, tc.axis, test)
				}
			}
		}
		// many contexts, few results each: self, parent and ancestor of
		// every leaf, in two interleaved iterations (the expectation is
		// written down, the oracle being quadratic here)
		var leaves, top Pairs
		for p := first; p <= last; p++ {
			leaves.append(p, p%2)
		}
		for p := int32(0); p < 2; p++ {
			top.append(p, 0)
			top.append(p, 1)
		}
		label := fmt.Sprintf("n=%d leaves", n)
		checkStepWant(t, slots, label, c, leaves, Self, Test{Kind: TestElem}, leaves)
		checkStepWant(t, slots, label, c, leaves, Child, Test{Kind: TestElem}, Pairs{})
		checkStepWant(t, slots, label, c, leaves, Parent, Test{Kind: TestNode}, Pairs{Pre: []int32{1, 1}, Iter: []int32{0, 1}})
		checkStepWant(t, slots, label, c, leaves, Ancestor, Test{Kind: TestNode}, top)
		checkStepWant(t, slots, label, c, leaves, AncestorOrSelf, Test{Kind: TestNode}, MergePairs(top, leaves))
	}
}

// richCtx draws a sorted context over c with the given number of
// iterations that has what the pruning rules feed on: nodes nested in
// other context nodes of the same iteration, and pres shared by
// several iterations.
func richCtx(rng *rand.Rand, c *store.Container, iters int) Pairs {
	shared := make([]int32, 4)
	for i := range shared {
		shared[i] = int32(rng.Intn(c.Len()))
	}
	var ctx Pairs
	for it := int32(1); it <= int32(iters); it++ {
		seen := map[int32]bool{}
		add := func(p int32) {
			if p >= 0 && !seen[p] {
				seen[p] = true
				ctx.append(p, it*3) // iteration numbers need not be dense
			}
		}
		for k := 1 + rng.Intn(5); k > 0; k-- {
			p := int32(rng.Intn(c.Len()))
			switch rng.Intn(4) {
			case 0:
				p = shared[rng.Intn(len(shared))]
			case 1:
				add(c.Parent[p]) // nest p in a context node of its iteration
			case 2:
				add(p + int32(rng.Intn(int(c.Size[p])+1)))
			}
			add(p)
		}
	}
	(&Blocks{Segs: []Pairs{ctx}}).sort()
	return ctx
}

// shallowCopy returns a transient container whose fragments mix its own
// elements with shallow copies of src's subtrees, so that node names
// resolve through the RefCont indirection.
func shallowCopy(t testing.TB, rng *rand.Rand, src *store.Container) *store.Container {
	pool := store.NewPool()
	pool.Register(src)
	dst := pool.Register(store.NewContainer(""))
	b := store.NewContainerBuilder(dst)
	for f := 0; f < 3; f++ {
		b.StartElem("b")
		for k := 0; k < 3; k++ {
			b.CopyTree(src, 1+int32(rng.Intn(src.Len()-1)))
			b.StartElem("a")
			b.End()
		}
		b.End()
	}
	if _, err := b.Done(); err != nil {
		t.Fatal(err)
	}
	if dst.RefCont == nil {
		t.Fatal("no shallow copy was made")
	}
	return dst
}

// TestKernelsAgainstOracle runs every axis x variant x entry point over
// random trees — plain, and shallow-copy transient containers — with
// contexts of one, two and many iterations.
func TestKernelsAgainstOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(2024))
	slots := testutil.ForkPool(t, 4)
	tests := []Test{{Kind: TestNode}, {Kind: TestElem}, {Kind: TestElem, Name: "b"}, {Kind: TestText}}
	for trial := 0; trial < 24; trial++ {
		c := randomTree(rng, 120)
		kind := "plain"
		if trial%2 == 1 {
			c = shallowCopy(t, rng, c)
			kind = "shallow"
		}
		for _, iters := range []int{1, 2, 17} {
			ctx := richCtx(rng, c, iters)
			for _, axis := range allAxes {
				for _, test := range tests {
					checkStep(t, slots, fmt.Sprintf("trial %d (%s) iters=%d", trial, kind, iters), c, ctx, axis, test)
				}
			}
		}
	}
}

// TestStopMidBlockReturnsBlocks: a Stop that fires while a block is half
// full must leave nothing outside the pool, whether the caller flattens
// the truncated result or releases it.
func TestStopMidBlockReturnsBlocks(t *testing.T) {
	c := wideDoc(t, 3*blockCap)
	root := Pairs{Pre: []int32{0}, Iter: []int32{1}}
	leaves := Pairs{}
	for p := int32(2); p < int32(c.Len()); p++ {
		leaves.append(p, 1)
	}
	live := liveBlocks.Load()
	slots := testutil.ForkPool(t, 4)
	x, r := Test{Kind: TestElem, Name: "x"}, Pairs{Pre: []int32{1}, Iter: []int32{1}}
	for _, tc := range []struct {
		ctx  Pairs
		axis Axis
		test Test
		v    Variant
	}{
		{root, Descendant, x, LoopLifted}, {root, Descendant, x, CandidateList}, {root, DescendantOrSelf, x, Iterative},
		{r, Child, x, LoopLifted}, {r, Child, x, CandidateList}, {leaves, Self, x, LoopLifted},
		{leaves, AncestorOrSelf, Test{Kind: TestElem}, LoopLifted}, {leaves, PrecedingSibling, x, LoopLifted},
	} {
		var polls atomic.Int32 // the forced-parallel run polls from its workers
		st := Stats{Stop: func() bool { return polls.Add(1) > 1 }}
		full := Step(c, tc.ctx, tc.axis, tc.test, tc.v, nil)
		out := Step(c, tc.ctx, tc.axis, tc.test, tc.v, &st)
		if polls.Load() < 2 || out.Len() >= full.Len() {
			t.Errorf("%v/%v: Stop fired %d times, %d of %d pairs emitted: not stopped early", tc.axis, tc.v, polls.Load(), out.Len(), full.Len())
		}
		polls.Store(0)
		b := StepBlocks(slots, c, tc.ctx, tc.axis, tc.test, tc.v, 4, 1, &st)
		b.Release()
		if now := liveBlocks.Load(); now != live {
			t.Fatalf("%v/%v: %d blocks left outside the pool after a stopped step", tc.axis, tc.v, now-live)
		}
	}
}

type probeStep struct {
	axis Axis
	test Test
	v    Variant
}

// probeChains are the six chains of bench/probes.go.
func probeChains() [][]probeStep {
	elem := func(name string) Test { return Test{Kind: TestElem, Name: name} }
	return [][]probeStep{
		{{Descendant, elem(""), LoopLifted}},
		{{Descendant, Test{Kind: TestText}, LoopLifted}},
		{{Descendant, elem("keyword"), CandidateList}, {Ancestor, elem(""), LoopLifted}},
		{{Descendant, elem("bidder"), CandidateList}, {FollowingSibling, elem("bidder"), LoopLifted}},
		{{Child, elem(""), LoopLifted}, {Child, elem(""), LoopLifted}, {Child, elem(""), LoopLifted}},
		{{Descendant, elem("listitem"), CandidateList}, {Descendant, elem("keyword"), CandidateList}},
	}
}

// TestProbeChainCounters pins the access counters of the benchmark's
// probe chains on the XMark factor-0.01 document (seed 1) to the values
// the append-based kernels of PR 13 produced, with and without the
// element-name index: the rebuilt kernels touch, emit and prune exactly
// the same tuples.
func TestProbeChainCounters(t *testing.T) {
	want := map[bool][][3]int64{
		false: {{18548, 11501, 0}, {18548, 7047, 0}, {20104, 1556, 269}, {19940, 341, 57}, {505, 505, 0}, {19771, 413, 61}},
		true:  {{18548, 11501, 0}, {18548, 7047, 0}, {1826, 1556, 269}, {1609, 341, 57}, {505, 505, 0}, {413, 413, 61}},
	}
	c := xmark.NewStoreContainer("auction.xml", 0.01, 1)
	for _, indexed := range []bool{false, true} {
		if indexed {
			c.BuildIndexes()
		}
		for k, chain := range probeChains() {
			var st Stats
			ctx := Pairs{Pre: []int32{0}, Iter: []int32{0}}
			for _, s := range chain {
				ctx = Step(c, ctx, s.axis, s.test, s.v, &st)
			}
			if got := [3]int64{st.Touched, st.Emitted, st.Pruned}; got != want[indexed][k] {
				t.Errorf("chain %d (indexed=%v): touched/emitted/pruned = %v, want %v", k, indexed, got, want[indexed][k])
			}
		}
	}
}

// TestStepAllocsConstant: a warm descendant::* step from the root
// allocates the result's two slices plus a fixed handful of small
// objects (emitter, block list, region stack) — no allocation grows with
// the result beyond the block list's doubling. The collector is off so
// that the block pool stays warm and the count is exact.
func TestStepAllocsConstant(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	ctx := Pairs{Pre: []int32{0}, Iter: []int32{0}}
	test := Test{Kind: TestElem}
	var allocs [2]float64
	for i, factor := range []float64{0.01, 0.04} {
		c := xmark.NewStoreContainer("auction.xml", factor, 1)
		if out := Step(c, ctx, Descendant, test, LoopLifted, nil); out.Len() < 2*blockCap {
			t.Fatalf("factor %v: only %d results", factor, out.Len())
		}
		allocs[i] = testing.AllocsPerRun(5, func() { Step(c, ctx, Descendant, test, LoopLifted, nil) })
	}
	// four times the result: two more doublings of the two block lists
	if allocs[0] > 16 || allocs[1] > allocs[0]+4 {
		t.Errorf("allocations per step = %v (factor 0.01), %v (factor 0.04): want <= 16 and +4", allocs[0], allocs[1])
	}
}
