package sched

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"
)

// The zero Config admits 2×GOMAXPROCS executions at once and queues
// twice that many: the defaults every scheduler built without explicit
// limits (mxq.NewScheduler, the serving layer's private one) runs with.
func TestDefaults(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	c := Config{}.withDefaults()
	if c.MaxConcurrent != 2*procs {
		t.Errorf("MaxConcurrent = %d, want 2×GOMAXPROCS = %d", c.MaxConcurrent, 2*procs)
	}
	if c.MaxQueue != 4*procs {
		t.Errorf("MaxQueue = %d, want 2×MaxConcurrent = %d", c.MaxQueue, 4*procs)
	}
	if st := New(Config{}).Stats(); st.MaxConcurrent != 2*procs {
		t.Errorf("Stats().MaxConcurrent = %d, want %d", st.MaxConcurrent, 2*procs)
	}
	// explicit values stay; a negative MaxQueue disables queueing
	c = Config{MaxConcurrent: 3, MaxQueue: -1}.withDefaults()
	if c.MaxConcurrent != 3 || c.MaxQueue != -1 {
		t.Errorf("explicit config = %+v, want MaxConcurrent 3, MaxQueue -1", c)
	}
	if c := (Config{MaxConcurrent: 5}).withDefaults(); c.MaxQueue != 10 {
		t.Errorf("MaxQueue = %d, want 2×MaxConcurrent = 10", c.MaxQueue)
	}
}

func TestAdmitQueueFull(t *testing.T) {
	s := New(Config{MaxConcurrent: 1, MaxQueue: -1})
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
	s := New(Config{MaxConcurrent: 1, MaxQueue: 4})
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
	s := New(Config{MaxConcurrent: 1, MaxQueue: 4})
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
	s := New(Config{MaxConcurrent: 1})
	g, err := s.Admit(context.Background(), Cost{})
	if err != nil {
		t.Fatal(err)
	}
	g.Release()
	g.Release() // must not double-free the execution slot
	if st := s.Stats(); st.Running != 0 {
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

func TestGrantFromNilContext(t *testing.T) {
	if g := GrantFrom(nil); g != nil {
		t.Errorf("GrantFrom(nil) = %v, want nil", g)
	}
	if g := GrantFrom(context.Background()); g != nil {
		t.Errorf("GrantFrom(Background) = %v, want nil", g)
	}
	s := New(Config{})
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
