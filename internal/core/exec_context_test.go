package core

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"mxq/internal/ralg"
	"mxq/internal/testutil"
	"mxq/internal/xqc"
)

// slowQuery generates ~4M rows through RangeGen and aggregates them —
// long enough that a 50ms deadline always fires mid-execution, yet
// bounded (a lost cancellation still finishes in a few seconds rather
// than hanging the suite).
const slowQuery = `sum(for $i in 1 to 2000 return sum(for $j in 1 to 2000 return $i * $j))`

func TestQueryContextDeadline(t *testing.T) {
	e := New(DefaultConfig())
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	res, err := e.QueryContext(ctx, slowQuery)
	elapsed := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if res != nil {
		t.Fatalf("got partial result %v alongside the context error", res)
	}
	// promptness: the checkpoints are amortized over a few thousand
	// rows, so the abort must land well before the query's natural
	// multi-second runtime
	if elapsed > 2*time.Second {
		t.Fatalf("cancelled query returned after %v", elapsed)
	}
}

func TestQueryContextCancelledBeforeRun(t *testing.T) {
	e := New(DefaultConfig())
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.QueryContext(ctx, `1+1`); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestQueryContextCompleteRunsUnaffected(t *testing.T) {
	e := New(DefaultConfig())
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	r, err := e.QueryContext(ctx, `sum(for $i in 1 to 100 return $i)`)
	if err != nil {
		t.Fatalf("QueryContext: %v", err)
	}
	if got := r.String(); got != "5050" {
		t.Fatalf("result = %q, want 5050", got)
	}
}

// TestCancelledExecDrainsWorkers forces the parallel operator paths
// (workers > 1, threshold 1) and verifies a deadline abort neither
// leaks worker goroutines nor returns a partial result. The worker
// pool is a fork-join barrier, so ExecuteContext returning implies the
// workers exited; the goroutine count check guards that invariant.
func TestCancelledExecDrainsWorkers(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Parallel = true
	cfg.Workers = 4
	cfg.ParallelThreshold = 1
	e := New(cfg)
	p, err := e.Prepare(slowQuery)
	if err != nil {
		t.Fatalf("Prepare: %v", err)
	}
	testutil.CheckGoroutines(t)
	for i := 0; i < 3; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
		res, err := p.ExecuteContext(ctx, nil)
		cancel()
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("run %d: err = %v, want context.DeadlineExceeded", i, err)
		}
		if res != nil {
			t.Fatalf("run %d: got partial result", i)
		}
	}
	// testutil.CheckGoroutines asserts at cleanup that the cancelled
	// executions' workers all drained
}

// TestExecutePanicContained feeds the executor a malformed plan — a
// Select over a column that does not exist, which panics inside
// ralg.Table.Col — and verifies the execution boundary converts the
// panic into an error carrying the query text instead of crashing the
// process.
func TestExecutePanicContained(t *testing.T) {
	tab := ralg.NewTable([]string{"iter"}, []ralg.ColKind{ralg.KInt})
	tab.Col("iter").Int = []int64{1}
	tab.N = 1
	broken := &ralg.Select{Cond: "no-such-column"}
	broken.SetInput(0, &ralg.Lit{Tab: tab})
	p := &Prepared{
		eng:   New(DefaultConfig()),
		query: "q-with-broken-plan",
		cq:    &compiled{Compiled: &xqc.Compiled{Plan: broken}},
	}
	res, err := p.Execute(nil)
	if err == nil {
		t.Fatal("Execute of a malformed plan returned no error")
	}
	if res != nil {
		t.Fatal("Execute of a malformed plan returned a result")
	}
	if !strings.Contains(err.Error(), "internal error") {
		t.Errorf("error %q does not identify itself as internal", err)
	}
	if !strings.Contains(err.Error(), "q-with-broken-plan") {
		t.Errorf("error %q does not carry the query text", err)
	}
}

// TestExecutePanicContainedInputIndex covers the other panic family the
// executor mints: plan-node input-index violations.
func TestExecutePanicContainedInputIndex(t *testing.T) {
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("SetInput out of range did not panic (test premise broken)")
		}
	}()
	s := &ralg.Select{}
	s.SetInput(1, &ralg.Lit{})
}
