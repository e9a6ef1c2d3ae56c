package core

import (
	"context"
	"strings"
	"sync"
	"testing"

	"mxq/internal/sched"
	"mxq/internal/testutil"
	"mxq/internal/xqerr"
)

const memTestDoc = `<site><a><b>1</b><b>2</b><b>3</b></a><a><b>4</b><b>5</b></a>` +
	`<c>x</c><c>y</c><c>z</c><c>w</c><c>v</c><c>u</c></site>`

// A budget smaller than the pinned document snapshot must fail the
// execution with the typed resource error before the first operator
// runs — even for a query that touches no document node.
func TestMemBudgetSmallerThanSnapshot(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Scheduler = sched.New(sched.Config{MemPerQuery: 4}) // bytes; any real document exceeds this
	e := New(cfg)
	if err := e.LoadXML("d.xml", strings.NewReader(memTestDoc)); err != nil {
		t.Fatal(err)
	}
	_, err := e.QueryContext(context.Background(), `1+1`)
	if err == nil {
		t.Fatal("tiny budget admitted a query over a larger snapshot")
	}
	if !xqerr.IsResourceLimit(err) {
		t.Fatalf("err = %v, want code %s", err, xqerr.CodeResourceLimit)
	}
	if !strings.Contains(err.Error(), "memory budget") {
		t.Fatalf("err = %v, want the budget message", err)
	}
}

// A budget hit mid-execution under forced parallelism: the fork-join
// workers must drain (no goroutine leak), the error must be typed, and
// the engine must stay fully usable — the budget is per-execution
// state, never engine state.
func TestMemBudgetAbortsParallelExecution(t *testing.T) {
	testutil.CheckGoroutines(t)
	cfg := DefaultConfig()
	cfg.Parallel = true
	cfg.Workers = 4
	cfg.ParallelThreshold = 1
	s := sched.New(sched.Config{Workers: 4, RowsPerWorker: 1, MemPerQuery: 512 << 10})
	cfg.Scheduler = s
	e := New(cfg)
	if err := e.LoadXML("d.xml", strings.NewReader(memTestDoc)); err != nil {
		t.Fatal(err)
	}
	hog := `for $i in 1 to 100000 for $j in 1 to 100000 where $i = $j return $j`
	for run := 0; run < 3; run++ {
		res, err := e.QueryContext(context.Background(), hog)
		if err == nil {
			t.Fatalf("run %d: 512KiB budget admitted a multi-MB join", run)
		}
		if !xqerr.IsResourceLimit(err) {
			t.Fatalf("run %d: err = %v, want code %s", run, err, xqerr.CodeResourceLimit)
		}
		if res != nil {
			t.Fatalf("run %d: got partial result alongside the budget error", run)
		}
	}
	got, err := e.QueryString(`count(//b)`)
	if err != nil || got != "5" {
		t.Fatalf("engine unusable after budget aborts: %q, %v", got, err)
	}
	requireForked(t, s)
}

// requireForked fails a budget test whose executions never drew a worker
// from the scheduler's pool: a grant of worker budget 1 (the default
// RowsPerWorker over a small document) would run them serially and the
// parallel half of the test would pass vacuously.
func requireForked(t *testing.T, s *sched.Scheduler) {
	t.Helper()
	if s.Stats().MaxSlotsInUse == 0 {
		t.Fatal("no execution drew a worker slot: the budget runs were serial")
	}
}

// Sixteen concurrent clients on one engine: the one over-budget query
// fails with the typed error while the fifteen in-budget clients get
// results byte-identical to the serial oracle. Run under -race this is
// also the budget accounting's race check (all charges flow through one
// shared MemBudget per execution, from every worker).
func TestMemBudget16ClientStress(t *testing.T) {
	testutil.CheckGoroutines(t)
	serial := New(DefaultConfig())
	if err := serial.LoadXML("d.xml", strings.NewReader(memTestDoc)); err != nil {
		t.Fatal(err)
	}
	queries := []string{
		`count(//b)`,
		`for $b in //b return $b/text()`,
		`sum(for $i in 1 to 500 return $i)`,
		`for $c in /site/c return $c`,
		`count(for $i in 1 to 200 for $j in 1 to 200 where $i = $j return $i)`,
	}
	want := make([]string, len(queries))
	for i, q := range queries {
		w, err := serial.QueryString(q)
		if err != nil {
			t.Fatalf("oracle %d: %v", i, err)
		}
		want[i] = w
	}

	const clients = 16
	cfg := DefaultConfig()
	cfg.Parallel = true
	cfg.Workers = 4
	cfg.ParallelThreshold = 1
	// every client is admitted at once; each grant is MemFloor (8 MiB),
	// the floor plus 4 KiB a row being larger for any document
	s := sched.New(sched.Config{Workers: 4, MaxConcurrent: clients, RowsPerWorker: 1, MemPerQuery: sched.MemFloor})
	cfg.Scheduler = s
	e := New(cfg)
	if err := e.LoadXML("d.xml", strings.NewReader(memTestDoc)); err != nil {
		t.Fatal(err)
	}
	// ~2M generated rows charge ~48MB against the 8MiB budget
	hog := `count(for $i in 1 to 2000000 return $i)`

	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			if c == 0 {
				_, err := e.QueryContext(context.Background(), hog)
				if err == nil || !xqerr.IsResourceLimit(err) {
					errs <- &clientErr{c, "hog", err}
				}
				return
			}
			q := (c - 1) % len(queries)
			got, err := e.QueryString(queries[q])
			if err != nil {
				errs <- &clientErr{c, "err", err}
				return
			}
			if got != want[q] {
				errs <- &clientErr{c, "mismatch vs oracle", nil}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	requireForked(t, s)
}

type clientErr struct {
	client int
	what   string
	err    error
}

func (e *clientErr) Error() string {
	return "client " + string(rune('0'+e.client%10)) + ": " + e.what + ": " + errStr(e.err)
}

func errStr(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// The scheduler's memory grant is the execution's byte budget: an
// in-budget query answers, an over-budget one fails with the typed
// resource error.
func TestSchedulerMemGrantGovernsExecution(t *testing.T) {
	s := sched.New(sched.Config{MaxConcurrent: 4, MemPerQuery: sched.MemFloor})
	cfg := DefaultConfig()
	cfg.Scheduler = s
	e := New(cfg)
	if err := e.LoadXML("d.xml", strings.NewReader(memTestDoc)); err != nil {
		t.Fatal(err)
	}
	// fits the 8MiB floor grant comfortably
	got, err := e.QueryString(`count(//b)`)
	if err != nil || got != "5" {
		t.Fatalf("in-budget scheduled query: %q, %v", got, err)
	}
	// ~48MB of generated rows exceed the grant
	_, err = e.QueryContext(context.Background(), `count(for $i in 1 to 2000000 return $i)`)
	if !xqerr.IsResourceLimit(err) {
		t.Fatalf("err = %v, want code %s", err, xqerr.CodeResourceLimit)
	}
}
