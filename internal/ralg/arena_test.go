package ralg

import (
	"runtime"
	"testing"
	"time"

	"mxq/internal/xqt"
)

// The region contract: requests bump through a slab, an execution that
// outgrows it chains more, and the reset that ends the round drops the
// chain so the next round gets one slab of everything that was asked.
func TestRegionBumpResetCoalesce(t *testing.T) {
	var r region
	a := r.bump(100)
	b := r.bump(50)
	if len(a) != 100 || cap(a) != 100 || len(b) != 50 || cap(b) != 50 {
		t.Fatalf("bump sizes: %d/%d %d/%d", len(a), cap(a), len(b), cap(b))
	}
	if &r.slabs[0][0] != &a[0] || &r.slabs[0][100] != &b[0] {
		t.Fatal("requests are not adjacent in the first slab")
	}
	if len(r.slabs) != 1 || len(r.slabs[0]) != minSlabWords {
		t.Fatalf("first slab: %d slabs, %d words", len(r.slabs), len(r.slabs[0]))
	}
	big := r.bump(3 * minSlabWords) // does not fit: chains a slab of its own size
	if len(r.slabs) != 2 || len(big) != 3*minSlabWords || r.asked != 150+3*minSlabWords {
		t.Fatalf("chain: %d slabs, asked %d", len(r.slabs), r.asked)
	}
	asked := r.asked
	r.reset()
	if r.slabs != nil || r.want != asked || r.asked != 0 {
		t.Fatalf("reset kept a chain: slabs=%d want=%d asked=%d", len(r.slabs), r.want, r.asked)
	}
	// the same round again fits the one slab the region now allocates
	r.bump(100)
	r.bump(50)
	r.bump(3 * minSlabWords)
	if len(r.slabs) != 1 || len(r.slabs[0]) != asked {
		t.Fatalf("coalesced slab: %d slabs of %d words, want one of %d", len(r.slabs), len(r.slabs[0]), asked)
	}
	first := &r.slabs[0][0]
	r.reset() // a lone slab is kept and reused from its start
	if c := r.bump(10); &c[0] != first {
		t.Fatal("reset did not rewind the lone slab")
	}
}

// Slices come back with capacity == length for every element type;
// strings, nil executions and (in the default build) requests under the
// floor stay on make and never take an arena. The budget is charged
// what was asked for either way, and gets the scratch bytes back.
func TestCarveCapacityAndFallbacks(t *testing.T) {
	e := &Exec{Mem: NewMemBudget(1 << 40)}
	defer e.Release()
	const n = 5000
	if s := dirty[int64](e, outRegion, n); len(s) != n || cap(s) != n {
		t.Errorf("int64: %d/%d", len(s), cap(s))
	}
	if s := dirty[int32](e, scratchRegion, n+1); len(s) != n+1 || cap(s) != n+1 {
		t.Errorf("int32: %d/%d", len(s), cap(s))
	}
	if s := dirty[bool](e, outRegion, 3*n+1); len(s) != 3*n+1 || cap(s) != 3*n+1 {
		t.Errorf("bool: %d/%d", len(s), cap(s))
	}
	if s := dirty[xqt.Kind](e, outRegion, 2*n+3); len(s) != 2*n+3 || cap(s) != 2*n+3 {
		t.Errorf("Kind: %d/%d", len(s), cap(s))
	}
	for i, v := range zeroed[float64](e, outRegion, n) {
		if v != 0 {
			t.Fatalf("zeroed[%d] = %v", i, v)
		}
	}
	const out, scratch = 8*n + (3*n + 1) + (2*n + 3) + 8*n, 4 * (n + 1) // the requests above, by region
	if e.Mem.Used() != out+scratch {
		t.Errorf("%d bytes held, %d asked for", e.Mem.Used(), out+scratch)
	}
	if e.resetScratch(); e.Mem.Used() != out {
		t.Errorf("%d bytes held once the scratch column is gone, %d are columns", e.Mem.Used(), out)
	}
	if LiveArenas() < 1 {
		t.Error("region-sized requests did not take an arena")
	}

	tiny := &Exec{Mem: NewMemBudget(1 << 40)}
	_ = dirty[string](tiny, outRegion, n) // strings hold pointers: Go heap
	_ = dirty[int64](nil, outRegion, n)   // no execution: Go heap
	if !poisoned {
		_ = dirty[int64](tiny, outRegion, arenaFloor/8-1)
	}
	if tiny.mem.a != nil {
		t.Error("a string vector or an under-floor request took an arena")
	}
	if held := tiny.Mem.Used(); held < 16*n || held > 16*n+arenaFloor {
		t.Errorf("%d bytes held for %d strings and an under-floor column", held, n)
	}
}

// Release is idempotent, returns the arena for the next execution (the
// warmest first), and never hands one arena to two live executions.
func TestReleaseIdempotentAndExclusive(t *testing.T) {
	base := LiveArenas()
	a, b := &Exec{}, &Exec{}
	dirty[int64](a, outRegion, 4096)
	dirty[int64](b, outRegion, 4096)
	if a.mem.a == nil || a.mem.a == b.mem.a {
		t.Fatal("two live executions share an arena")
	}
	if LiveArenas() != base+2 {
		t.Fatalf("live = %d, want %d", LiveArenas(), base+2)
	}
	mine := a.mem.a
	a.Release()
	a.Release()
	if LiveArenas() != base+1 {
		t.Fatalf("live after double release = %d, want %d", LiveArenas(), base+1)
	}
	c := &Exec{}
	dirty[int64](c, outRegion, 4096)
	if c.mem.a != mine {
		t.Error("the released arena was not the next one taken")
	}
	if c.mem.a == b.mem.a {
		t.Fatal("a released arena is shared with a live execution")
	}
	b.Release()
	c.Release()
	(&Exec{}).Release() // never took one
	if LiveArenas() != base {
		t.Fatalf("live = %d, want %d", LiveArenas(), base)
	}
}

// An Exec that is never released keeps its tables valid whatever other
// executions do with their arenas, and Run drops scratch after every
// operator without touching what tables reference.
func TestUnreleasedExecTablesStayValid(t *testing.T) {
	const n = 20000
	plan := func() Plan {
		iters, items := make([]int64, n), make([]xqt.Item, n)
		for i := range iters {
			iters[i], items[i] = int64(n-i), xqt.Int(int64(i%97))
		}
		tab := tableOf([]string{"iter", "item"}, uniformIntCol(iters), NewItemVec(items))
		var p Plan = &Sort{unary: unary{In: &Lit{Tab: tab}}, By: []string{"item", "iter"}}
		p = &RowNum{unary: unary{In: p}, Out: "pos", Part: "item", Mode: RankSeq}
		return &Select{unary: unary{In: &Fun{unary: unary{In: p}, Op: FunLt, Args: []string{"pos", "iter"}, Out: "c"}}, Cond: "c"}
	}()
	keeper := NewExec(nil, nil)
	kept, err := keeper.Run(plan)
	if err != nil {
		t.Fatal(err)
	}
	snapshot := kept.String() + kept.Gather([]int32{int32(kept.N - 1)}).String()
	for round := 0; round < 5; round++ {
		e := NewExec(nil, nil)
		got, err := e.Run(plan)
		if err != nil || !TablesEqual(got, kept) {
			t.Fatalf("round %d: err=%v, equal=%v", round, err, err == nil && TablesEqual(got, kept))
		}
		e.Release()
		runtime.GC()
	}
	if now := kept.String() + kept.Gather([]int32{int32(kept.N - 1)}).String(); now != snapshot {
		t.Fatal("an unreleased execution's table changed under it")
	}
	keeper.Release()
}

// Arenas nobody takes for a whole collection cycle are dropped, like
// the items of a sync.Pool.
func TestIdleArenasAreTrimmed(t *testing.T) {
	e := &Exec{}
	dirty[int64](e, outRegion, 4096)
	e.Release()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		arenas.Lock()
		n := len(arenas.free)
		arenas.Unlock()
		if n == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d arenas still on the free list after repeated collections", n)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// The poisoned build: dirty memory is not zero, and whatever was handed
// out reads as the pattern after the reset that ends its lifetime — a
// column aliasing scratch or a read after Release cannot go unnoticed.
func TestPoisonedLifetimes(t *testing.T) {
	if !poisoned {
		t.Skip("needs -tags arenapoison")
	}
	e := &Exec{}
	pattern := int64(-0x5A5A5A5A5A5A5A5B) // poisonWord as an int64
	d := dirty[int64](e, outRegion, 64)
	if uint64(d[0]) != poisonWord || d[63] != pattern {
		t.Fatalf("dirty memory = %x, want the poison pattern", d[0])
	}
	s := zeroed[int64](e, scratchRegion, 64)
	s[0], d[0] = 7, 7
	e.resetScratch()
	if s[0] != pattern || d[0] != 7 {
		t.Fatalf("after the scratch reset: scratch %x (want poison), out %x (want 7)", s[0], d[0])
	}
	e.Release()
	if d[0] != pattern {
		t.Fatalf("out memory after Release = %x, want poison", d[0])
	}
}
