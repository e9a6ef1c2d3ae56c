package sched

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestDefaults(t *testing.T) {
	c := Config{Workers: 4}.withDefaults()
	if c.MaxConcurrent != 8 {
		t.Errorf("MaxConcurrent = %d, want 8", c.MaxConcurrent)
	}
	if c.MaxQueue != 16 {
		t.Errorf("MaxQueue = %d, want 16", c.MaxQueue)
	}
	if c.MaxWorkersPerQuery != 4 {
		t.Errorf("MaxWorkersPerQuery = %d, want 4", c.MaxWorkersPerQuery)
	}
	if c.RowsPerWorker != DefaultRowsPerWorker {
		t.Errorf("RowsPerWorker = %d, want %d", c.RowsPerWorker, DefaultRowsPerWorker)
	}
}

func TestBudgetFor(t *testing.T) {
	s := New(Config{Workers: 8, RowsPerWorker: 1000})
	cases := []struct {
		c    Cost
		want int
	}{
		// trivial plan, tiny input: serial
		{Cost{Ops: 3, Rows: 10}, 1},
		// join-heavy plan over a large input: wide
		{Cost{Ops: 64, Joins: 3, Rows: 1 << 20}, 8},
		// complex plan but tiny input: the data cap wins
		{Cost{Ops: 200, Joins: 10, Rows: 500}, 1},
		// moderate plan, moderate input
		{Cost{Ops: 32, Joins: 1, Rows: 2500}, 3},
	}
	for _, tc := range cases {
		if got := s.budgetFor(tc.c); got != tc.want {
			t.Errorf("budgetFor(%+v) = %d, want %d", tc.c, got, tc.want)
		}
	}
	// MaxWorkersPerQuery clamps below the pool size.
	s2 := New(Config{Workers: 8, MaxWorkersPerQuery: 2, RowsPerWorker: 1})
	if got := s2.budgetFor(Cost{Joins: 10, Rows: 1 << 20}); got != 2 {
		t.Errorf("clamped budget = %d, want 2", got)
	}
}

func TestAdmitQueueFull(t *testing.T) {
	s := New(Config{Workers: 1, MaxConcurrent: 1, MaxQueue: -1})
	g, err := s.Admit(context.Background(), Cost{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Admit(context.Background(), Cost{}); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("second admit: %v, want ErrQueueFull", err)
	}
	g.Release()
	g2, err := s.Admit(context.Background(), Cost{})
	if err != nil {
		t.Fatalf("admit after release: %v", err)
	}
	g2.Release()
	st := s.Stats()
	if st.Admitted != 2 || st.RejectedFull != 1 || st.Running != 0 {
		t.Errorf("stats = %+v", st)
	}
}

// TestAdmitQueuedCancel: a queued-but-unadmitted request releases its
// queue position promptly when its context is cancelled.
func TestAdmitQueuedCancel(t *testing.T) {
	s := New(Config{Workers: 1, MaxConcurrent: 1, MaxQueue: 4})
	g, err := s.Admit(context.Background(), Cost{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := s.Admit(ctx, Cost{})
		errc <- err
	}()
	// Wait for the admit to actually queue, then cancel it.
	deadline := time.Now().Add(2 * time.Second)
	for s.Stats().QueueDepth != 1 {
		if time.Now().After(deadline) {
			t.Fatal("admit never queued")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	select {
	case err := <-errc:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("queued admit: %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("cancelled admit did not return promptly")
	}
	if st := s.Stats(); st.QueueDepth != 0 || st.CanceledWait != 1 {
		t.Errorf("stats after cancel = %+v", st)
	}
	g.Release()
}

// TestAdmitQueuedWait: a queued admit proceeds when a slot frees.
func TestAdmitQueuedWait(t *testing.T) {
	s := New(Config{Workers: 1, MaxConcurrent: 1, MaxQueue: 4})
	g, err := s.Admit(context.Background(), Cost{})
	if err != nil {
		t.Fatal(err)
	}
	got := make(chan *Grant, 1)
	go func() {
		g2, err := s.Admit(context.Background(), Cost{})
		if err != nil {
			t.Error(err)
		}
		got <- g2
	}()
	deadline := time.Now().Add(2 * time.Second)
	for s.Stats().QueueDepth != 1 {
		if time.Now().After(deadline) {
			t.Fatal("admit never queued")
		}
		time.Sleep(time.Millisecond)
	}
	g.Release()
	select {
	case g2 := <-got:
		g2.Release()
	case <-time.After(2 * time.Second):
		t.Fatal("queued admit did not proceed after release")
	}
}

func TestGrantReleaseIdempotent(t *testing.T) {
	s := New(Config{Workers: 2, MaxConcurrent: 1})
	g, err := s.Admit(context.Background(), Cost{})
	if err != nil {
		t.Fatal(err)
	}
	g.Release()
	g.Release() // must not double-free the execution slot
	if st := s.Stats(); st.Running != 0 || st.GrantedBudget != 0 {
		t.Errorf("stats after double release = %+v", st)
	}
	// The slot is free exactly once: a new admit succeeds, a second queues.
	g2, err := s.Admit(context.Background(), Cost{})
	if err != nil {
		t.Fatal(err)
	}
	defer g2.Release()
	if st := s.Stats(); st.Running != 1 {
		t.Errorf("running = %d, want 1", st.Running)
	}
}

func TestSetCostOnce(t *testing.T) {
	s := New(Config{Workers: 8, RowsPerWorker: 1})
	g, err := s.Admit(context.Background(), Cost{})
	if err != nil {
		t.Fatal(err)
	}
	if g.Budget() != 1 {
		t.Fatalf("initial budget = %d, want 1", g.Budget())
	}
	g.SetCost(Cost{Joins: 3, Rows: 1 << 20})
	if g.Budget() != 4 {
		t.Fatalf("budget after SetCost = %d, want 4", g.Budget())
	}
	g.SetCost(Cost{Joins: 7, Rows: 1 << 20}) // first call wins
	if g.Budget() != 4 {
		t.Fatalf("budget after second SetCost = %d, want 4", g.Budget())
	}
	if st := s.Stats(); st.GrantedBudget != 4 {
		t.Errorf("GrantedBudget = %d, want 4", st.GrantedBudget)
	}
	g.Release()
	if st := s.Stats(); st.GrantedBudget != 0 {
		t.Errorf("GrantedBudget after release = %d, want 0", st.GrantedBudget)
	}
}

// TestSlotPoolBounded hammers the slot pool from many goroutines and
// checks the pool-wide invariant: slots in use never exceed Workers,
// and everything is returned at the end.
func TestSlotPoolBounded(t *testing.T) {
	const workers = 4
	s := New(Config{Workers: workers, MaxConcurrent: 64})
	var wg sync.WaitGroup
	var total atomic.Int64
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			g, err := s.Admit(context.Background(), Cost{})
			if err != nil {
				t.Error(err)
				return
			}
			defer g.Release()
			for j := 0; j < 100; j++ {
				n := g.AcquireSlots(3)
				if in := s.Stats().SlotsInUse; in > workers {
					t.Errorf("SlotsInUse = %d > %d", in, workers)
				}
				total.Add(int64(n))
				g.ReleaseSlots(n)
			}
		}()
	}
	wg.Wait()
	st := s.Stats()
	if st.SlotsInUse != 0 {
		t.Errorf("SlotsInUse after drain = %d, want 0", st.SlotsInUse)
	}
	if st.MaxSlotsInUse > workers {
		t.Errorf("MaxSlotsInUse = %d > %d", st.MaxSlotsInUse, workers)
	}
	if n := s.slots.AcquireSlots(workers + 1); n != workers {
		t.Errorf("a drained pool hands out %d slots, want all %d", n, workers)
	}
	if total.Load() == 0 {
		t.Error("no slots were ever acquired")
	}
}

// TestPoolNeverBlocks: a pool hands out what is free — all of a request
// it can cover, part of one it cannot, nothing when it is empty or the
// request is — and a release makes the slots available again.
func TestPoolNeverBlocks(t *testing.T) {
	p := NewPool(3)
	for _, tc := range []struct{ want, got int }{{2, 2}, {0, 0}, {5, 1}, {1, 0}} {
		if n := p.AcquireSlots(tc.want); n != tc.got {
			t.Fatalf("AcquireSlots(%d) = %d, want %d", tc.want, n, tc.got)
		}
	}
	p.ReleaseSlots(2)
	if n := p.AcquireSlots(4); n != 2 || p.InUse() != 3 || p.MaxInUse() != 3 {
		t.Errorf("after a release: got %d, in use %d, high-water %d; want 2, 3, 3", n, p.InUse(), p.MaxInUse())
	}
}

func TestGrantFromNilContext(t *testing.T) {
	if g := GrantFrom(nil); g != nil {
		t.Errorf("GrantFrom(nil) = %v, want nil", g)
	}
	if g := GrantFrom(context.Background()); g != nil {
		t.Errorf("GrantFrom(Background) = %v, want nil", g)
	}
	s := New(Config{Workers: 1})
	g, err := s.Admit(context.Background(), Cost{})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Release()
	ctx := WithGrant(context.Background(), g)
	if got := GrantFrom(ctx); got != g {
		t.Errorf("GrantFrom(WithGrant) = %v, want %v", got, g)
	}
}
