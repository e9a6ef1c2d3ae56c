package core

import (
	"context"
	"errors"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"

	"mxq/internal/faults"
	"mxq/internal/ralg"
	"mxq/internal/sched"
	"mxq/internal/xmark"
	"mxq/internal/xqerr"
)

func xmarkEngine(t *testing.T, cfg Config, factor float64) *Engine {
	t.Helper()
	e := New(cfg)
	e.LoadContainer("auction.xml", xmark.NewStoreContainer("auction.xml", factor, 1))
	return e
}

// Every way out of ExecuteContext hands the execution's column memory
// back: a result, a dynamic error raised after the plan materialized
// columns, a cancellation, a budget abort and a contained panic all
// leave no arena behind — and the engine answers the next query.
func TestExecuteReleasesArenaOnEveryPath(t *testing.T) {
	t.Cleanup(faults.Reset)
	cfg := DefaultConfig()
	e := xmarkEngine(t, cfg, 0.01)
	want, err := e.QueryString(xmark.Query(8))
	if err != nil {
		t.Fatal(err)
	}
	check := func(path string) {
		t.Helper()
		if n := ralg.LiveArenas(); n != 0 {
			t.Fatalf("%s: %d arenas still held", path, n)
		}
		if got, err := e.QueryString(xmark.Query(8)); err != nil || got != want {
			t.Fatalf("%s: engine unusable afterwards: %v", path, err)
		}
	}
	check("result")

	// exactly-one() over the items fails only after the steps ran
	if _, err := e.QueryString(`exactly-one(//item/name)`); err == nil {
		t.Fatal("exactly-one over many items succeeded")
	}
	check("dynamic error")

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.QueryContext(ctx, xmark.Query(11)); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run: %v", err)
	}
	check("cancelled before run")

	tight := cfg
	tight.Scheduler = sched.New(sched.Config{MemPerQuery: 96 << 10}) // above the snapshot charge, below Q11's joins
	te := xmarkEngine(t, tight, 0.01)
	if _, err := te.QueryString(xmark.Query(11)); !xqerr.IsResourceLimit(err) {
		t.Fatalf("budget run: %v", err)
	}
	check("budget abort")

	if err := faults.Enable("ralg.op", 0.05, 7, faults.ModePanic); err != nil {
		t.Fatal(err)
	}
	failed := 0
	for q := 1; q <= 20; q++ {
		if _, err := e.QueryString(xmark.Query(q)); err != nil {
			failed++
		}
	}
	faults.Reset()
	if failed == 0 {
		t.Fatal("no injected panic fired")
	}
	check("contained panic")
}

// Concurrent executions each hold their own arena while they run, and
// all of them are back once the clients are done.
func TestConcurrentExecutionsReleaseArenas(t *testing.T) {
	e := xmarkEngine(t, DefaultConfig(), 0.01)
	want, err := e.QueryString(xmark.Query(9))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < 5; r++ {
				if got, err := e.QueryString(xmark.Query(9)); err != nil || got != want {
					t.Errorf("concurrent Q9: err=%v, identical=%v", err, got == want)
				}
			}
		}()
	}
	wg.Wait()
	if n := ralg.LiveArenas(); n != 0 {
		t.Fatalf("%d arenas still held after the clients finished", n)
	}
}

// A warm prepared statement runs out of its recycled arena: what it
// still asks the Go allocator for — string vectors, the result items,
// the transient container, per-operator headers — is bounded by a
// hard-coded figure per query, so a column site that slips back to
// make fails here. The bounds sit 10 % above today's 186 and 169 KB for
// Q11 and Q20, and Q10's below the 609 KB its constructors took as rows
// (today 589 KB: they write XML, one row per tree) — most of it the
// transient container, allocated once at the size the statement
// remembers (3 416 KB while fourteen constructors regrew it), and
// columns under the arena's 4 KB floor — and well below the 4 495,
// 1 002 and 1 032 KB the same executions allocated before the arena.
func TestWarmExecutionAllocationBound(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's shadow allocations distort the byte counts")
	}
	e := xmarkEngine(t, DefaultConfig(), 0.01)
	for _, tc := range []struct {
		query int
		maxKB float64
	}{{10, 600}, {11, 205}, {20, 186}} {
		p, err := e.Prepare(xmark.Query(tc.query))
		if err != nil {
			t.Fatal(err)
		}
		for warm := 0; warm < 3; warm++ {
			if _, err := p.Execute(nil); err != nil {
				t.Fatal(err)
			}
		}
		func() {
			defer debug.SetGCPercent(debug.SetGCPercent(-1))
			const runs = 5
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for r := 0; r < runs; r++ {
				if _, err := p.Execute(nil); err != nil {
					t.Fatal(err)
				}
			}
			runtime.ReadMemStats(&after)
			kb := float64(after.TotalAlloc-before.TotalAlloc) / runs / 1024
			t.Logf("Q%d: %.0f KB/execution", tc.query, kb)
			if kb > tc.maxKB {
				t.Errorf("Q%d allocates %.0f KB per warm execution, bound %.0f KB", tc.query, kb, tc.maxKB)
			}
		}()
	}
}
