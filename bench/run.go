package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// samples are the latencies (ms, per class) and the verdicts one
// goroutine of a run collected.
type samples struct {
	lat       [][]float64
	attempted int
	failed    int
	notes     []string
}

func newSamples(classes int) *samples { return &samples{lat: make([][]float64, classes)} }

func (s *samples) merge(o *samples) {
	for c := range o.lat {
		s.lat[c] = append(s.lat[c], o.lat[c]...)
	}
	s.attempted += o.attempted
	s.failed += o.failed
	s.notes = append(s.notes, o.notes...)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// runClient cycles prog until the deadline, finishing the pass it is in
// when wholePasses is set. An operation is timed from the call until
// its last output byte is in the sink; verification happens after the
// clock stops.
func runClient(e *env, prog []op, deadline time.Time, wholePasses bool) *samples {
	s := newSamples(len(e.classes))
	chk := newChecker(e)
	var sink bytes.Buffer
	for {
		for i := range prog {
			o := &prog[i]
			sink.Reset()
			t0 := time.Now()
			err := o.run(&sink)
			d := time.Since(t0)
			s.lat[o.class] = append(s.lat[o.class], ms(d))
			s.attempted++
			if err != nil {
				chk.note("%s: %v", e.classes[o.class], err)
				s.failed++
			} else if !chk.ok(o, sink.Bytes()) {
				s.failed++
			}
			if !wholePasses && !time.Now().Before(deadline) {
				s.notes = chk.notes
				return s
			}
		}
		if !time.Now().Before(deadline) {
			s.notes = chk.notes
			return s
		}
	}
}

// runWriter is collection-churn's open-loop writer: one add is due
// every c.every from start, and each is timed from its due time, so a
// stall delays and lengthens the adds behind it. late collects how far
// behind its schedule each add started.
func runWriter(e *env, start, deadline time.Time) (s *samples, late []float64) {
	c := e.churn
	s = newSamples(len(e.classes))
	addClass := len(e.classes) - 1
	for i := 0; ; i++ {
		due := start.Add(time.Duration(i) * c.every)
		if !due.Before(deadline) {
			return s, late
		}
		time.Sleep(time.Until(due))
		late = append(late, ms(time.Since(due)))
		err := c.add()
		s.lat[addClass] = append(s.lat[addClass], ms(time.Since(due)))
		s.attempted++
		if err != nil {
			s.failed++
			s.notes = append(s.notes, "add: "+err.Error())
		}
	}
}

// lateness reports how far behind its schedule the open-loop writer
// started its adds.
func lateness(late []float64) []string {
	if len(late) == 0 {
		return nil
	}
	s := sorted(late)
	return []string{fmt.Sprintf("writer: %d adds, started late by p50 %.3f ms, max %.3f ms", len(s), percentile(s, 50), s[len(s)-1])}
}

// runAll runs every client of e (and the writer, if any) for the given
// time and returns the merged samples, the wall time they took and the
// writer's lateness. A zero duration is the warm-up: each client runs
// its program once and the writer adds one document.
func runAll(e *env, d time.Duration) (all *samples, wall time.Duration, late []float64) {
	parts := make([]*samples, len(e.clients)+1)
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(d)
	for i, prog := range e.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			parts[i] = runClient(e, prog, deadline, e.wholePasses || d == 0)
		}()
	}
	if e.churn != nil {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// only the add due at start precedes a deadline of start+1ns
			parts[len(e.clients)], late = runWriter(e, start, start.Add(max(d, 1)))
		}()
	}
	wg.Wait()
	wall = time.Since(start)
	all = newSamples(len(e.classes))
	for _, p := range parts {
		if p != nil {
			all.merge(p)
		}
	}
	return all, wall, late
}

func sorted(v []float64) []float64 {
	s := append([]float64{}, v...)
	sort.Float64s(s)
	return s
}

// percentile returns the p-th percentile of sorted values by the
// nearest-rank rule.
func percentile(sortedVals []float64, p float64) float64 {
	if len(sortedVals) == 0 {
		return 0
	}
	i := int(math.Ceil(p/100*float64(len(sortedVals)))) - 1
	if i < 0 {
		i = 0
	}
	return sortedVals[i]
}

func median(v []float64) float64 {
	s := sorted(v)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// geomeanOfMedians is the geometric mean, over the classes that have
// samples, of each class's median latency: it moves when any class
// moves, not only the heavy ones.
func geomeanOfMedians(lat [][]float64) float64 {
	sum, n := 0.0, 0
	for _, l := range lat {
		if len(l) > 0 {
			sum += math.Log(median(l))
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}

func flatten(lat [][]float64) []float64 {
	var all []float64
	for _, l := range lat {
		all = append(all, l...)
	}
	return all
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() (float64, error) {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// setUp sets the workload up repeatedly, closing all but the last
// instance, and returns that instance with the median set-up time: at
// least MinSetups times, and on until SetupBudget is spent or maxSetups
// are done, so that a set-up of half a millisecond is measured as
// steadily as one of a quarter second. Setting up covers generating,
// shredding and indexing the documents, opening the engine, preparing
// the statements and starting the server; the oracle has already run.
func setUp(w *workload, in *inputs, want []oracleOut) (*env, float64, error) {
	var times []float64
	var e *env
	spent := 0.0
	for len(times) < in.Scale.MinSetups || (spent < in.Scale.SetupBudget.Seconds() && len(times) < maxSetups) {
		if e != nil {
			e.close()
			e = nil
			runtime.GC()
		}
		t0 := time.Now()
		var err error
		e, err = w.setup(in, want)
		if err != nil {
			return nil, 0, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, time.Since(t0).Seconds())
		spent += times[len(times)-1]
	}
	return e, median(times), nil
}

// measure is the end-to-end run of one workload: oracle, set-up, one
// untimed warm-up pass, then the timed phase.
func measure(w *workload, seed int64, sc scale, seconds float64) (*result, []string, error) {
	in := w.inputs(seed, sc)
	want, err := references(w, in)
	if err != nil {
		return nil, nil, err
	}
	e, setupS, err := setUp(w, in, want)
	if err != nil {
		return nil, nil, err
	}
	defer e.close()
	warm, _, _ := runAll(e, 0)
	s, wall, late := runAll(e, time.Duration(seconds*float64(time.Second)))
	rss, err := peakRSSMB()
	if err != nil {
		return nil, nil, err
	}
	all := sorted(flatten(s.lat))
	res, err := newResult(endToEnd, map[string]float64{
		"setup_s":          setupS,
		"op_p50_ms":        percentile(all, 50),
		"op_p95_ms":        percentile(all, 95),
		"op_geomean_ms":    geomeanOfMedians(s.lat),
		"throughput_ops_s": float64(len(all)) / wall.Seconds(),
		"peak_rss_mb":      rss,
	})
	if err != nil {
		return nil, nil, err
	}
	// A failure in the warm-up pass is a failure of the run: the same
	// operations repeat in the timed phase, but a first-execution error
	// must not go unreported.
	res.Attempted = s.attempted + warm.attempted
	res.Failed = s.failed + warm.failed
	res.Correct = res.Failed == 0
	notes := append(warm.notes, s.notes...)
	notes = append(notes, lateness(late)...)
	notes = append(notes, fmt.Sprintf("%d timed operations in %.2fs, %d classes", len(all), wall.Seconds(), len(e.classes)))
	return res, notes, nil
}
