package main

import (
	"fmt"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"

	"mxq/internal/core"
	"mxq/internal/sched"
	"mxq/internal/xmark"
)

// cheapMix is the XMark query mix of the multi-client runs (the
// parallel experiment's throughput section and the scheduler storm):
// cheap queries, so a run measures concurrency and scheduling overhead
// rather than a single heavy plan.
var cheapMix = []int{1, 2, 5, 6, 13, 15, 17, 20}

// schedExp measures the global query scheduler under oversubscription:
// 4× more concurrent clients than execution slots hammer one engine
// with the cheap XMark mix, once with free-spawning parallel execution
// (every query builds its own GOMAXPROCS pool) and once under the
// scheduler (shared slot pool, cost-derived budgets, queued
// admission). Every result is compared byte-for-byte against serial
// execution, so the run doubles as a differential check of the
// scheduled path; the scheduler run also reports the pool counters —
// the headline number is the worker-goroutine high-water mark, bounded
// by the pool size instead of clients×workers.
func schedExp(scales []float64) {
	f := scales[len(scales)-1]
	workers := *workersFlag
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	maxConcurrent := workers
	clients := 4 * maxConcurrent // the oversubscription axis
	const rounds = 5

	cont := xmark.NewStoreContainer("auction.xml", f, *seedFlag)
	serial := core.New(core.DefaultConfig())
	serial.LoadContainer(cont.Name, cont)

	parCfg := core.ParallelConfig()
	parCfg.Workers = workers
	free := core.New(parCfg)
	free.LoadContainer(cont.Name, cont)

	s := sched.New(sched.Config{
		Workers:       workers,
		MaxConcurrent: maxConcurrent,
		MaxQueue:      4 * clients, // nothing sheds; the run measures queueing
	})
	schedCfg := core.ParallelConfig()
	schedCfg.Workers = workers
	schedCfg.Scheduler = s
	scheduled := core.New(schedCfg)
	scheduled.LoadContainer(cont.Name, cont)

	fmt.Printf("\n== Scheduler (%s): %d clients over %d execution slots, %d-worker pool ==\n",
		mb(f), clients, maxConcurrent, workers)

	want := make([]string, len(cheapMix))
	for i, q := range cheapMix {
		w, err := serial.QueryString(xmark.Query(q))
		if err != nil {
			fmt.Fprintf(os.Stderr, "sched: serial Q%d: %v\n", q, err)
			return
		}
		want[i] = w
	}

	storm := func(eng *core.Engine) (qps float64, lat []time.Duration, errs int) {
		stmts := make([]*core.Prepared, len(cheapMix))
		for i, q := range cheapMix {
			p, err := eng.Prepare(xmark.Query(q))
			if err != nil {
				fmt.Fprintf(os.Stderr, "sched: prepare Q%d: %v\n", q, err)
				return 0, nil, 1
			}
			stmts[i] = p
		}
		lats := make([][]time.Duration, clients)
		var bad sync.Map
		var wg sync.WaitGroup
		start := time.Now()
		for cl := 0; cl < clients; cl++ {
			wg.Add(1)
			go func(cl int) {
				defer wg.Done()
				for r := 0; r < rounds; r++ {
					for k := range cheapMix {
						i := (cl + r + k) % len(cheapMix)
						t0 := time.Now()
						res, err := stmts[i].Execute(nil)
						lats[cl] = append(lats[cl], time.Since(t0))
						if err != nil {
							bad.Store(fmt.Sprintf("Q%d: %v", cheapMix[i], err), true)
							continue
						}
						if res.String() != want[i] {
							bad.Store(fmt.Sprintf("Q%d: result differs from serial", cheapMix[i]), true)
						}
					}
				}
			}(cl)
		}
		wg.Wait()
		wall := time.Since(start)
		for _, l := range lats {
			lat = append(lat, l...)
		}
		bad.Range(func(k, _ any) bool {
			fmt.Fprintf(os.Stderr, "sched: %s\n", k)
			errs++
			return true
		})
		sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
		return float64(len(lat)) / wall.Seconds(), lat, errs
	}

	total := clients * rounds * len(cheapMix)
	errsTotal := 0
	for _, mode := range []struct {
		label string
		eng   *core.Engine
	}{{"free-spawning", free}, {"scheduled", scheduled}} {
		qps, lat, errs := storm(mode.eng)
		errsTotal += errs
		if len(lat) == 0 {
			return
		}
		fmt.Printf("%-14s %8.1f q/s   p50 %s  p95 %s  max %s\n",
			mode.label, qps,
			pctl(lat, 50).Round(time.Microsecond), pctl(lat, 95).Round(time.Microsecond),
			lat[len(lat)-1].Round(time.Microsecond))
	}
	st := s.Stats()
	fmt.Printf("\n-- scheduler counters --\n")
	fmt.Printf("admitted:          %d of %d executions (rejected %d, canceled %d)\n",
		st.Admitted, total, st.RejectedFull, st.CanceledWait)
	fmt.Printf("worker high-water: %d of %d pool slots (unscheduled bound: %d)\n",
		st.MaxSlotsInUse, st.Workers, clients*workers)
	if errsTotal == 0 {
		fmt.Printf("differential:      all %d scheduled executions byte-identical to serial\n", total)
	} else {
		fmt.Printf("differential:      %d FAILURES\n", errsTotal)
	}
}

func pctl(sorted []time.Duration, p int) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := p * len(sorted) / 100
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}
