package main

import (
	"fmt"
	"os"
	"time"

	"mxq/internal/core"
	"mxq/internal/sched"
	"mxq/internal/xmark"
	"mxq/internal/xqerr"
)

// memExp measures the cost of per-query memory governance: the full
// Q1–Q20 mix runs once on an ungoverned engine and once under a
// scheduler with a generous per-query budget (every allocator charges
// the execution's MemBudget, no query is aborted), so the delta is the
// accounting — one atomic add per column or list handed out, not per
// row — plus the admission it comes with. A third section tightens the
// budget until queries are rejected, demonstrating that aborts are
// typed, prompt, and leave the engine fully usable.
func memExp(scales []float64) {
	f := scales[len(scales)-1]
	cont := xmark.NewStoreContainer("auction.xml", f, *seedFlag)

	// limit 0 is the unscheduled, unlimited engine; otherwise the budget
	// is the grant's, min(MemFloor + MemPerRow·rows, limit)
	mkEngine := func(limit int64) *core.Engine {
		cfg := core.DefaultConfig()
		if limit > 0 {
			cfg.Scheduler = sched.New(sched.Config{MemPerQuery: limit})
		}
		e := core.New(cfg)
		e.LoadContainer(cont.Name, cont)
		return e
	}
	plain := mkEngine(0)
	governed := mkEngine(1 << 30) // generous: nothing aborts, everything is accounted

	fmt.Printf("\n== Memory governance overhead (%s): Q1-Q20, best of %d ==\n", mb(f), *runsFlag)

	want := make([]string, 20)
	for i := range want {
		w, err := plain.QueryString(xmark.Query(i + 1))
		if err != nil {
			fmt.Fprintf(os.Stderr, "mem: Q%d: %v\n", i+1, err)
			return
		}
		want[i] = w
	}

	// Interleave the modes per query so cache state treats them alike.
	mixTime := func(e *core.Engine, check bool) (time.Duration, bool) {
		var total time.Duration
		for i := range want {
			q := xmark.Query(i + 1)
			d, ok := bestOf(func() error {
				got, err := e.QueryString(q)
				if err != nil {
					return err
				}
				if check && got != want[i] {
					return fmt.Errorf("Q%d differs from the ungoverned run", i+1)
				}
				return nil
			})
			if !ok {
				return 0, false
			}
			total += d
		}
		return total, true
	}

	base, ok := mixTime(plain, false)
	if !ok {
		return
	}
	gov, ok := mixTime(governed, true)
	if !ok {
		return
	}
	overhead := 100 * (gov.Seconds() - base.Seconds()) / base.Seconds()
	fmt.Printf("%-12s %10s\n", "ungoverned", base.Round(time.Microsecond))
	fmt.Printf("%-12s %10s   overhead %+.2f%%  (MemPerQuery 1GiB, all 20 byte-identical)\n",
		"budgeted", gov.Round(time.Microsecond), overhead)

	// -- governance in action: a budget small enough to reject work --
	tight := mkEngine(256 << 10)
	rejected := 0
	for i := 0; i < 20; i++ {
		_, err := tight.QueryString(xmark.Query(i + 1))
		if err == nil {
			continue
		}
		if !xqerr.IsResourceLimit(err) {
			fmt.Fprintf(os.Stderr, "mem: Q%d failed untyped under budget: %v\n", i+1, err)
			return
		}
		rejected++
	}
	got, err := tight.QueryString(`1+1`)
	usable := err == nil && got == "2"
	fmt.Printf("%-12s %d of 20 queries aborted with %s; engine usable after: %v\n",
		"256KiB cap", rejected, xqerr.CodeResourceLimit, usable)
}
