package core

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"mxq/internal/sched"
	"mxq/internal/xmark"
)

// TestSchedOversubscribedDifferential is the admission stress test: 4×
// more concurrent executions than execution slots, on a scheduled engine
// and on an unscheduled one. Every execution must complete (no
// starvation), every result must be byte-identical to a lone engine's,
// no execution may spawn goroutines of its own, and the scheduler must
// drain back to idle. Run under -race this doubles as the data-race
// check on the admission path.
func TestSchedOversubscribedDifferential(t *testing.T) {
	const maxConcurrent = 4
	const clients = 4 * maxConcurrent
	const rounds = 3

	cont := xmark.NewStoreContainer("auction.xml", 0.005, 42)
	serial := New(DefaultConfig())
	serial.LoadContainer("auction.xml", cont)
	queries := []string{xmark.Query(1), xmark.Query(5), xmark.Query(13), xmark.Query(20), `count(//item)`}
	want := make([]string, len(queries))
	for i, q := range queries {
		w, err := serial.QueryString(q)
		if err != nil {
			t.Fatalf("serial %q: %v", q, err)
		}
		want[i] = w
	}

	// storm runs the clients against eng and samples the process
	// goroutine count meanwhile: it stays around clients (launchers) over
	// the baseline.
	storm := func(t *testing.T, eng *Engine) {
		eng.LoadContainer("auction.xml", cont)
		stmts := make([]*Prepared, len(queries))
		for i, q := range queries {
			p, err := eng.Prepare(q)
			if err != nil {
				t.Fatalf("prepare %q: %v", q, err)
			}
			stmts[i] = p
		}
		before := runtime.NumGoroutine()
		stop := make(chan struct{})
		maxGoroutines := make(chan int, 1)
		go func() {
			peak := 0
			for {
				select {
				case <-stop:
					maxGoroutines <- peak
					return
				default:
				}
				if n := runtime.NumGoroutine(); n > peak {
					peak = n
				}
				time.Sleep(time.Millisecond)
			}
		}()
		var wg sync.WaitGroup
		errs := make(chan error, clients)
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for r := 0; r < rounds; r++ {
					i := (c + r) % len(queries)
					res, err := stmts[i].ExecuteContext(context.Background(), nil)
					if err != nil {
						errs <- err
						return
					}
					if got := res.String(); got != want[i] {
						errs <- errors.New("result differs from serial for " + queries[i])
						return
					}
				}
			}(c)
		}
		wg.Wait()
		close(stop)
		close(errs)
		for err := range errs {
			t.Error(err)
		}
		if peak := <-maxGoroutines - before; peak > clients+8 {
			t.Errorf("goroutine peak %d over the baseline: executions spawn goroutines", peak)
		}
	}

	t.Run("scheduled", func(t *testing.T) {
		s := sched.New(sched.Config{
			MaxConcurrent: maxConcurrent,
			MaxQueue:      2 * clients, // every client may queue; none sheds
		})
		cfg := DefaultConfig()
		cfg.Scheduler = s
		storm(t, New(cfg))
		st := s.Stats()
		if st.Admitted != clients*rounds {
			t.Errorf("Admitted = %d, want %d (starved executions)", st.Admitted, clients*rounds)
		}
		if st.Running != 0 || st.QueueDepth != 0 {
			t.Errorf("scheduler did not drain: %+v", st)
		}
	})

	// without a scheduler every client runs at once
	t.Run("unscheduled", func(t *testing.T) { storm(t, New(DefaultConfig())) })
}

// TestSchedQueuedExecutionCancel: an execution queued behind a
// saturated scheduler gives up promptly when its deadline expires,
// without ever starting, and the queue drains.
func TestSchedQueuedExecutionCancel(t *testing.T) {
	s := sched.New(sched.Config{MaxConcurrent: 1, MaxQueue: 4})
	cfg := DefaultConfig()
	cfg.Scheduler = s
	eng := New(cfg)
	eng.LoadContainer("auction.xml", xmark.NewStoreContainer("auction.xml", 0.002, 7))

	slow, err := eng.Prepare(`sum(for $i in 1 to 2000 return sum(for $j in 1 to 2000 return $i * $j))`)
	if err != nil {
		t.Fatal(err)
	}
	quick, err := eng.Prepare(`1+1`)
	if err != nil {
		t.Fatal(err)
	}

	slowCtx, cancelSlow := context.WithCancel(context.Background())
	slowDone := make(chan struct{})
	go func() {
		defer close(slowDone)
		_, _ = slow.ExecuteContext(slowCtx, nil)
	}()
	deadline := time.Now().Add(3 * time.Second)
	for s.Stats().Running != 1 {
		if time.Now().After(deadline) {
			cancelSlow()
			t.Fatal("slow execution never admitted")
		}
		time.Sleep(time.Millisecond)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = quick.ExecuteContext(ctx, nil)
	if !errors.Is(err, context.DeadlineExceeded) {
		cancelSlow()
		t.Fatalf("queued execution: %v, want DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("queued execution held its position %v after expiry", elapsed)
	}
	if st := s.Stats(); st.QueueDepth != 0 || st.CanceledWait != 1 {
		t.Errorf("queue did not drain: %+v", st)
	}

	cancelSlow()
	<-slowDone
	drain := time.Now().Add(3 * time.Second)
	for s.Stats().Running != 0 {
		if time.Now().After(drain) {
			t.Fatalf("slow execution never released: %+v", s.Stats())
		}
		time.Sleep(time.Millisecond)
	}

	// The freed slot is immediately usable.
	res, err := quick.Execute(nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.String() != "2" {
		t.Errorf("result %q, want 2", res.String())
	}
}
