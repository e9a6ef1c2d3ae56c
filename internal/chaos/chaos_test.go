// Package chaos is the deterministic fault-injection suite: it drives
// the XMark query mix through the full engine stack — snapshotting,
// relational operators, parallel staircase-join forks, scheduler
// admission and release — while the fault registry (internal/faults)
// injects allocation-failure errors, cancellations, and panics at every
// registered site, and asserts the robustness invariants the rest of
// the repository relies on:
//
//  1. no injected panic escapes ExecuteContext (the process survives
//     every site × mode combination),
//  2. no goroutines leak across faulted executions (fork-join workers
//     always drain), and
//  3. once faults are disarmed, the same engine answers every query of
//     the mix byte-identical to the serial oracle — a faulted execution
//     never poisons memoization, the plan cache, the scheduler, or the
//     store, and
//  4. every execution, however it ended, released its column arena
//     (ralg.LiveArenas is back to zero; the poisoned build of
//     chaos-smoke makes every execution of this tiny corpus take one).
//
// Runs are reproducible: the injection schedule is a pure function of
// (site, probability, seed), with the seed overridable via
// MXQ_FAULTS_SEED (the chaos-smoke CI target passes the workflow run
// id, so every CI run explores a different deterministic schedule whose
// failures replay locally with the same seed).
package chaos

import (
	"os"
	"strconv"
	"strings"
	"sync"
	"testing"

	"mxq/internal/core"
	"mxq/internal/faults"
	"mxq/internal/ralg"
	"mxq/internal/sched"
	"mxq/internal/testutil"
	"mxq/internal/xmark"
	"mxq/internal/xqerr"
)

// chaosSeed returns the injection seed: MXQ_FAULTS_SEED when set (the
// CI smoke target passes the workflow run id), a fixed default
// otherwise.
func chaosSeed(t *testing.T) uint64 {
	if v := os.Getenv("MXQ_FAULTS_SEED"); v != "" {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			t.Fatalf("MXQ_FAULTS_SEED=%q: %v", v, err)
		}
		return n
	}
	return 424242
}

// chaosMix is the XMark mix plus two queries for the kernel sites the
// twenty XMark queries do not reach at this document scale: a sort over
// thousands of unordered numeric keys (the radix passes of the sort
// kernel, which poll for cancellation and charge their buffers) and a
// theta join compared in the string domain.
var chaosMix = append(xmark.Queries[:len(xmark.Queries):len(xmark.Queries)],
	`for $e in //* order by string-length(name($e)) descending return name($e)`,
	`for $i in //item/name for $p in //person/name where $i < $p return <m>{$i/text()}</m>`)

// engineSites are the fault points the in-process engine stack reaches;
// serve.stream needs an HTTP response writer and is exercised by the
// serving-layer chaos test in internal/serve.
var engineSites = []string{"store.snapshot", "ralg.op", "scj.fork", "sched.admit", "sched.release"}

func TestChaosXMarkMix(t *testing.T) {
	testutil.CheckGoroutines(t)
	t.Cleanup(faults.Reset)
	seed := chaosSeed(t)
	const factor, genSeed = 0.002, 11
	cont := xmark.NewStoreContainer("auction.xml", factor, genSeed)

	// Serial oracle results, computed before any fault is armed.
	oracle := core.New(core.DefaultConfig())
	oracle.LoadContainer("auction.xml", cont)
	want := make([]string, len(chaosMix))
	for i, q := range chaosMix {
		w, err := oracle.QueryString(q)
		if err != nil {
			t.Fatalf("oracle Q%d: %v", i+1, err)
		}
		want[i] = w
	}

	// The engine under attack: parallel with a forced threshold (so
	// scj.fork sites actually fork) under a scheduler (so sched.admit
	// and sched.release sites are on every execution's path).
	cfg := core.ParallelConfig()
	cfg.Workers = 4
	cfg.ParallelThreshold = 1
	// RowsPerWorker 1 defeats the data-size budget cap: the chaos corpus
	// is deliberately tiny, but the forks must happen for scj.fork to be
	// reachable.
	cfg.Scheduler = sched.New(sched.Config{Workers: 8, MaxConcurrent: 8, RowsPerWorker: 1, MemPerQuery: 64 << 20})
	eng := core.New(cfg)
	eng.LoadContainer("auction.xml", cont)

	// every registered engine site must actually exist in the catalog
	catalog := strings.Join(faults.Sites(), ",")
	for _, site := range engineSites {
		if !strings.Contains(catalog, site) {
			t.Fatalf("site %q not registered (catalog: %s)", site, catalog)
		}
	}

	for _, site := range engineSites {
		for mode, modeName := range map[faults.Mode]string{
			faults.ModeError:  "error",
			faults.ModePanic:  "panic",
			faults.ModeCancel: "cancel",
		} {
			t.Run(site+"/"+modeName, func(t *testing.T) {
				faults.Reset()
				if err := faults.Enable(site, 0.5, seed, mode); err != nil {
					t.Fatal(err)
				}
				// Invariant 1: no panic escapes — any injected failure
				// surfaces as an error return (or the query survives).
				failed := 0
				for i, q := range chaosMix {
					got, err := eng.QueryString(q)
					if err != nil {
						failed++
						continue
					}
					if got != want[i] {
						t.Errorf("faulted run Q%d returned a WRONG result (not an error)", i+1)
					}
				}
				faults.Reset()
				if failed == 0 {
					t.Errorf("no query failed with %s armed at p=0.5 — site is likely not wired", site)
				}
				// Invariant 3: the engine is unpoisoned — the full mix,
				// un-faulted, is byte-identical to the serial oracle.
				for i, q := range chaosMix {
					got, err := eng.QueryString(q)
					if err != nil {
						t.Errorf("post-fault Q%d: %v", i+1, err)
						continue
					}
					if got != want[i] {
						t.Errorf("post-fault Q%d differs from the serial oracle", i+1)
					}
				}
				// Invariant 4: no execution path kept its arena.
				if n := ralg.LiveArenas(); n != 0 {
					t.Errorf("%d arenas still held after the faulted and clean runs", n)
				}
				// Invariant 2 (no goroutine leaks) is asserted by
				// testutil.CheckGoroutines at test cleanup.
			})
		}
	}
}

// TestChaosConcurrentClients arms every engine site at once at a lower
// probability and hammers the engine from concurrent clients — the
// worst case for drain bugs: faults firing while other executions hold
// scheduler slots and fork-join workers. The process must survive,
// and afterwards the engine must still agree with the oracle.
func TestChaosConcurrentClients(t *testing.T) {
	testutil.CheckGoroutines(t)
	t.Cleanup(faults.Reset)
	seed := chaosSeed(t)
	cont := xmark.NewStoreContainer("auction.xml", 0.002, 11)

	oracle := core.New(core.DefaultConfig())
	oracle.LoadContainer("auction.xml", cont)

	cfg := core.ParallelConfig()
	cfg.Workers = 4
	cfg.ParallelThreshold = 1
	cfg.Scheduler = sched.New(sched.Config{Workers: 8, MaxConcurrent: 8, RowsPerWorker: 1, MemPerQuery: 64 << 20})
	eng := core.New(cfg)
	eng.LoadContainer("auction.xml", cont)

	faults.Reset()
	for _, site := range engineSites {
		mode := faults.ModeError
		if site == "scj.fork" || site == "store.snapshot" {
			mode = faults.ModePanic // these sites inject panics by design
		}
		if err := faults.Enable(site, 0.05, seed, mode); err != nil {
			t.Fatal(err)
		}
	}

	const clients, rounds = 8, 5
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				q := chaosMix[(c*rounds+r)%len(chaosMix)]
				// errors are expected; escapes/panics would kill the test
				_, _ = eng.QueryString(q)
			}
		}(c)
	}
	wg.Wait()
	if n := ralg.LiveArenas(); n != 0 {
		t.Errorf("%d arenas still held after the concurrent clients finished", n)
	}
	faults.Reset()

	for i, q := range chaosMix {
		w, err := oracle.QueryString(q)
		if err != nil {
			t.Fatalf("oracle Q%d: %v", i+1, err)
		}
		got, err := eng.QueryString(q)
		if err != nil {
			t.Errorf("post-chaos Q%d: %v", i+1, err)
			continue
		}
		if got != w {
			t.Errorf("post-chaos Q%d differs from the serial oracle", i+1)
		}
	}
}

// TestChaosWithMemBudget overlays fault injection on a tight memory
// budget: both stop mechanisms share the executor's poll sites, so this
// is the cross-check that neither masks the other and the typed errors
// stay classifiable. The budget is the scheduler grant's, and the mix
// must actually fork on the scheduler's pool.
func TestChaosWithMemBudget(t *testing.T) {
	testutil.CheckGoroutines(t)
	t.Cleanup(faults.Reset)
	cont := xmark.NewStoreContainer("auction.xml", 0.002, 11)
	cfg := core.ParallelConfig()
	cfg.Workers = 4
	cfg.ParallelThreshold = 1
	s := sched.New(sched.Config{Workers: 8, MaxConcurrent: 8, RowsPerWorker: 1, MemPerQuery: 2 << 20})
	cfg.Scheduler = s
	eng := core.New(cfg)
	eng.LoadContainer("auction.xml", cont)

	faults.Reset()
	if err := faults.Enable("ralg.op", 0.3, chaosSeed(t), faults.ModeError); err != nil {
		t.Fatal(err)
	}
	for i, q := range chaosMix {
		_, err := eng.QueryString(q)
		if err == nil {
			continue
		}
		// every failure must be one of the two governed classes
		if !faults.IsInjected(err) && !xqerr.IsResourceLimit(err) {
			t.Errorf("Q%d: unclassified failure %v", i+1, err)
		}
	}
	faults.Reset()
	if s.Stats().MaxSlotsInUse == 0 {
		t.Fatal("no execution drew a worker slot: the budgeted mix ran serially")
	}
}
