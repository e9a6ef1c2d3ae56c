package core

import (
	"context"
	"runtime"
	"strings"
	"sync"
	"testing"

	"mxq/internal/faults"
	"mxq/internal/ralg"
	"mxq/internal/sched"
	"mxq/internal/xmark"
	"mxq/internal/xqerr"
)

// TestTransientContainerSizedOnce: a statement remembers how many
// transient rows its last successful execution built, so from the
// second execution on — through any handle or one-shot query of the
// same text — no element constructor regrows the container.
func TestTransientContainerSizedOnce(t *testing.T) {
	e := xmarkEngine(t, DefaultConfig(), 0.01)
	p, err := e.Prepare(xmark.Query(10))
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Execute(nil)
	if err != nil {
		t.Fatal(err)
	}
	want, first := res.String(), res.Stats
	if first.TransientRows == 0 || first.TransientRegrows == 0 {
		t.Fatalf("first execution: %d transient rows, %d regrows; Q10's fourteen constructors should outgrow their own reservations", first.TransientRows, first.TransientRegrows)
	}
	if got := p.cq.transientRows.Load(); got != first.TransientRows {
		t.Fatalf("statement remembers %d rows, the execution built %d", got, first.TransientRows)
	}
	for _, run := range []func() (*Result, error){
		func() (*Result, error) { return p.Execute(nil) },
		func() (*Result, error) { return e.Query(xmark.Query(10)) }, // same text, same cached statement
	} {
		got, err := run()
		if err != nil || got.String() != want {
			t.Fatalf("sized execution: err=%v, identical=%v", err, err == nil && got.String() == want)
		}
		if st := got.Stats; st.TransientRegrows != 0 || st.TransientRows != first.TransientRows {
			t.Fatalf("sized execution: %d rows (want %d), %d regrows (want 0)", st.TransientRows, first.TransientRows, st.TransientRegrows)
		}
	}
}

const elemsQuery = `declare variable $n external; for $i in 1 to $n return <a>{$i}</a>`

// The figure is the last value, not the maximum: a binding that once
// built a large result does not pin a large reservation.
func TestTransientFigureFollowsTheBinding(t *testing.T) {
	e := New(DefaultConfig())
	p, err := e.Prepare(elemsQuery)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int64{5000, 3, 700} {
		if _, err := p.Execute(Bindings{"n": ralg.BindInts(n)}); err != nil {
			t.Fatal(err)
		}
		if got := p.cq.transientRows.Load(); got != 2*n { // an element and its text node
			t.Fatalf("$n = %d: statement remembers %d rows, want %d", n, got, 2*n)
		}
	}
}

// The remembered room is taken by the first constructor that builds
// something, not before the plan runs: an execution whose binding builds
// nothing allocates what a statement with nothing to remember does,
// whatever its last execution built.
func TestTransientRoomOnlyWhenBuilding(t *testing.T) {
	e := New(DefaultConfig())
	var last *Result
	exec := func(q string, n int64) (kb int64) {
		p, err := e.Prepare(q)
		if err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if last, err = p.Execute(Bindings{"n": ralg.BindInts(n)}); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return int64(after.TotalAlloc-before.TotalAlloc) >> 10
	}
	control := strings.Replace(elemsQuery, "a>", "b>", 2) // same plan shape, never builds
	exec(control, 0)
	exec(elemsQuery, 20000) // remembers 40 000 rows: 1.4 MB of columns
	if idle, kb := exec(control, 0), exec(elemsQuery, 0); kb > idle+400 {
		t.Fatalf("an execution that builds nothing allocated %d KB, %d KB with nothing remembered", kb, idle)
	}
	exec(elemsQuery, 20000)
	if idle, kb := exec(control, 0), exec(elemsQuery, 20000); kb < idle+1400 || last.Stats.TransientRegrows != 0 {
		t.Fatalf("a building execution allocated %d KB (%d KB idle) with %d regrows; it should take the remembered room once", kb, idle, last.Stats.TransientRegrows)
	}
}

// Sixteen executions of one statement share the figure without a race
// (run under -race by make check) and each gets its own result.
func TestTransientFigureConcurrent(t *testing.T) {
	e := New(DefaultConfig())
	p, err := e.Prepare(elemsQuery)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for c := int64(1); c <= 16; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < 20; r++ {
				got, err := p.ExecuteString(Bindings{"n": ralg.BindInts(40 * c)})
				if err != nil || strings.Count(got, "<a>") != int(40*c) {
					t.Errorf("client %d: err=%v, %d elements", c, err, strings.Count(got, "<a>"))
					return
				}
			}
		}()
	}
	wg.Wait()
	if got := p.cq.transientRows.Load(); got%80 != 0 || got < 80 || got > 16*80 {
		t.Fatalf("statement remembers %d rows, not the figure of any one execution", got)
	}
}

// An execution that does not succeed — cancelled, over budget, failed by
// an injected error or a contained panic — never writes the figure.
func TestTransientFigureIgnoresFailedExecutions(t *testing.T) {
	t.Cleanup(faults.Reset)
	cfg := DefaultConfig()
	cfg.Scheduler = sched.New(sched.Config{MemPerQuery: 1 << 20})
	e := New(cfg)
	p, err := e.Prepare(elemsQuery)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Execute(Bindings{"n": ralg.BindInts(50)}); err != nil {
		t.Fatal(err)
	}
	unchanged := func(path string) {
		t.Helper()
		if got := p.cq.transientRows.Load(); got != 100 {
			t.Fatalf("%s: the figure moved to %d", path, got)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := p.ExecuteContext(ctx, Bindings{"n": ralg.BindInts(7)}); err == nil {
		t.Fatal("cancelled execution succeeded")
	}
	unchanged("cancelled")
	if _, err := p.Execute(Bindings{"n": ralg.BindInts(1 << 20)}); err == nil {
		t.Fatal("a million elements fit a 1 MiB budget")
	}
	unchanged("over budget")
	for _, mode := range []faults.Mode{faults.ModeError, faults.ModePanic, faults.ModeCancel} {
		if err := faults.Enable("ralg.op", 1, 7, mode); err != nil {
			t.Fatal(err)
		}
		if _, err := p.Execute(Bindings{"n": ralg.BindInts(9)}); err == nil {
			t.Fatalf("fault mode %v: execution succeeded", mode)
		}
		faults.Reset()
		unchanged("injected fault")
	}
	if _, err := p.Execute(Bindings{"n": ralg.BindInts(9)}); err != nil || p.cq.transientRows.Load() != 18 {
		t.Fatalf("after the faults: err=%v, figure %d, want 18", err, p.cq.transientRows.Load())
	}
}

// The transient container is a row store like any column: forty copies
// of the regions subtree (16 MB of structural rows at factor 0.02) do
// not fit a 2 MiB budget, however few items the query returns; a small
// constructor still does.
func TestTransientContainerIsBudgeted(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Scheduler = sched.New(sched.Config{MemPerQuery: 2 << 20})
	e := xmarkEngine(t, cfg, 0.02)
	res, err := e.Query(`count(for $i in (1 to 40) return <r>{/site/regions}</r>)`)
	if !xqerr.IsResourceLimit(err) || res != nil {
		t.Fatalf("forty copied subtrees under 2 MiB: err = %v, result %v", err, res)
	}
	if got, err := e.QueryString(`count(for $i in (1 to 40) return <r>{/site/regions/africa/item[1]/name}</r>)`); err != nil || got != "40" {
		t.Fatalf("a small constructor under the same budget: %q, %v", got, err)
	}
}
