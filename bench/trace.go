package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"mxq/internal/core"
	"mxq/internal/opt"
	"mxq/internal/ralg"
	"mxq/internal/store"
	"mxq/internal/xqc"
	"mxq/internal/xqp"
	"mxq/internal/xqt"
)

// span is one timed interval at a layer boundary. Spans of one
// operation share Op; Parent is the ID of the span that caused this one
// (0 for an operation's root). Times are nanoseconds since the tracer
// started. A layer's self time is its span minus its children.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps the spans in memory; they are written out once, after
// the run. The harness records them around its own calls into each
// layer: nothing inside the engine is instrumented.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	ops   int
}

func newTracer() *tracer { return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<16)} }

func (t *tracer) newOp() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ops++
	return t.ops
}

func (t *tracer) begin(name string, op, parent int) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Op: op, Name: name, Start: int64(time.Since(t.t0))})
	return len(t.spans)
}

func (t *tracer) end(id int) {
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// durations returns, per span name, every span's length in nanoseconds.
func (t *tracer) durations() map[string][]float64 {
	d := make(map[string][]float64)
	for _, s := range t.spans {
		d[s.Name] = append(d[s.Name], float64(s.End-s.Start))
	}
	return d
}

// coverage is the share of the staged operations' time that their
// stage spans account for.
func (t *tracer) coverage() float64 {
	rootOf := make(map[int]bool)
	var roots, children float64
	for _, s := range t.spans {
		if s.Parent == 0 && strings.HasPrefix(s.Name, "op:") {
			rootOf[s.ID] = true
			roots += float64(s.End - s.Start)
		}
	}
	for _, s := range t.spans {
		if rootOf[s.Parent] {
			children += float64(s.End - s.Start)
		}
	}
	if roots == 0 {
		return 0
	}
	return children / roots
}

func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	err = json.NewEncoder(w).Encode(t.spans)
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// layerCounts are the machine-independent counters of one staged pass
// over a workload's statements; on the single-client workloads they
// repeat exactly for one seed.
type layerCounts struct {
	stats      ralg.ExecStats
	items      int64
	memHW      int64 // bytes, maximum over the pass
	serialized int64 // bytes
}

// stage runs one statement the way Prepared.ExecuteContext does, but
// from the harness and with a span per stage: snapshot and executor
// set-up, Exec.Run, Table.Items, serialization.
func stage(t *tracer, e *env, op, root int, plan ralg.Plan, binds ralg.Bindings, sink *bytes.Buffer, lc *layerCounts) error {
	id := t.begin("core.snapshot", op, root)
	qp := e.db.Engine().Pool().Snapshot()
	transient := store.NewContainer("")
	qp.Register(transient)
	ex := ralg.NewExec(qp, transient)
	ex.ContextDoc = e.ctxDoc
	ex.Bindings = binds
	if lc != nil {
		// byte accounting for ralg.mem_highwater_kb, on the counted pass
		// only: the later passes are timed as the engine runs by default
		ex.Mem = ralg.NewMemBudget(1 << 50) // the limit is out of reach
		ex.Mem.Charge(qp.Rows())
	}
	t.end(id)

	id = t.begin("ralg.run", op, root)
	tab, err := ex.Run(plan)
	t.end(id)
	if err != nil {
		return err
	}

	id = t.begin("ralg.items", op, root)
	items := tab.Items("item")
	t.end(id)

	id = t.begin("store.serialize", op, root)
	err = serializeItems(sink, qp, items)
	t.end(id)
	if lc != nil {
		addStats(&lc.stats, ex.Stats)
		lc.items += int64(len(items))
		lc.memHW = max(lc.memHW, ex.Mem.HighWater())
		lc.serialized += int64(sink.Len())
	}
	return err
}

func addStats(a *ralg.ExecStats, b ralg.ExecStats) {
	a.Step.Touched += b.Step.Touched
	a.Step.Emitted += b.Step.Emitted
	a.Step.Pruned += b.Step.Pruned
	a.SortedRows += b.SortedRows
	a.FullSorts += b.FullSorts
	a.RefineSort += b.RefineSort
	a.HashJoins += b.HashJoins
	a.PosJoins += b.PosJoins
	a.ThetaNL += b.ThetaNL
	a.ThetaIdx += b.ThetaIdx
	a.ExistAggr += b.ExistAggr
	a.CrossRows += b.CrossRows
}

// serializeItems mirrors core.Result.SerializeXML, whose pool is not
// reachable from outside the package; the traced run checks that the
// two produce the same bytes.
func serializeItems(w io.Writer, pool *store.Pool, items []xqt.Item) error {
	prevAtom := false
	for _, it := range items {
		switch it.K {
		case xqt.KNode:
			if err := store.Serialize(w, pool.Get(it.Cont), int32(it.I)); err != nil {
				return err
			}
			prevAtom = false
		case xqt.KAttr:
			c := pool.Get(it.Cont)
			if _, err := fmt.Fprintf(w, `%s=%q`, c.Names.Name(c.AttrName[it.I]), c.AttrVal[it.I]); err != nil {
				return err
			}
			prevAtom = false
		default:
			s := it.AsString()
			if prevAtom {
				s = " " + s
			}
			if _, err := io.WriteString(w, s); err != nil {
				return err
			}
			prevAtom = true
		}
	}
	return nil
}

// compileStages is the engine's compile path driven from the harness,
// one span per stage.
func compileStages(t *tracer, op, root int, query string) (*xqc.Compiled, error) {
	id := t.begin("xqp.parse", op, root)
	m, err := xqp.Parse(query)
	t.end(id)
	if err != nil {
		return nil, err
	}
	id = t.begin("xqc.compile", op, root)
	cq, err := xqc.Compile(m, xqc.DefaultOptions())
	t.end(id)
	if err != nil {
		return nil, err
	}
	id = t.begin("opt.optimize", op, root)
	cq.Plan = opt.Optimize(cq.Plan)
	t.end(id)
	return cq, nil
}

// stagedRun is what stagedPasses hands back beside the spans.
type stagedRun struct {
	counts            layerCounts // of the first pass
	attempted, failed int
	classOf           map[int]int // staged operation id -> class
	// execNs holds, per class, the times of a plain Prepared.Execute of
	// the same statement, taken next to each staged operation.
	execNs [][]float64
	notes  []string
}

// stagedPasses runs staged passes over e.stmts for d, at least once.
// collection-churn registers one more document before the first pass
// and then whenever another is due, from the same goroutine, so the
// traced run has no concurrency and the first pass's counters repeat.
func stagedPasses(t *tracer, e *env, in *inputs, d time.Duration) *stagedRun {
	r := &stagedRun{classOf: make(map[int]int), execNs: make([][]float64, len(e.classes))}
	fail := func(format string, args ...any) {
		r.failed++
		r.notes = append(r.notes, fmt.Sprintf(format, args...))
	}
	eng := e.db.Engine()
	chk := newChecker(e)
	var sink, engineOut bytes.Buffer
	start := time.Now()
	deadline := start.Add(d)
	adds := 0
	for pass := 0; pass == 0 || time.Now().Before(deadline); pass++ {
		if e.churn != nil && !time.Now().Before(start.Add(time.Duration(adds)*e.churn.every)) {
			adds++
			id := t.newOp()
			root := t.begin("op:add", id, 0)
			child := t.begin("core.add_doc", id, root)
			err := e.churn.add()
			t.end(child)
			t.end(root)
			r.attempted++
			if err != nil {
				fail("add: %v", err)
			}
		}
		for i := range e.stmts {
			st := &e.stmts[i]
			var binds ralg.Bindings
			if st.ref >= 0 && in.Refs[st.ref].Min != nil {
				binds = ralg.Bindings{"min": ralg.BindInts(*in.Refs[st.ref].Min)}
			}
			// The engine's own handle: its plan is what the staged run
			// executes (compile-cold compiles its own, inside the
			// operation), and its Execute is the untraced counterpart.
			class := e.classes[st.class]
			r.attempted++
			prep, err := eng.Prepare(st.query)
			if err != nil {
				fail("%s: prepare: %v", class, err)
				continue
			}
			var counts *layerCounts
			if pass == 0 {
				counts = &r.counts
			}
			if e.churn != nil {
				e.churn.doneAtStart = e.churn.done.Load()
			}
			// The plain Execute runs before the staged operation on odd
			// passes and after it on even ones, so that neither side
			// always finds the caches warmed by the other.
			var res *core.Result
			var execErr error
			execute := func() {
				t0 := time.Now()
				res, execErr = prep.Execute(binds)
				r.execNs[st.class] = append(r.execNs[st.class], float64(time.Since(t0)))
			}
			if pass%2 == 1 {
				execute()
			}
			sink.Reset()
			id := t.newOp()
			r.classOf[id] = st.class
			root := t.begin("op:"+class, id, 0)
			plan := prep.Plan()
			if e.oneShot {
				var cq *xqc.Compiled
				if cq, err = compileStages(t, id, root, st.query); err == nil {
					plan = cq.Plan
				}
			}
			if err == nil {
				err = stage(t, e, id, root, plan, binds, &sink, counts)
			}
			t.end(root)
			if err != nil {
				fail("%s: staged: %v", class, err)
				continue
			}
			if !chk.ok(&op{class: st.class, ref: st.ref}, sink.Bytes()) {
				r.failed++
			}
			if pass%2 == 0 {
				execute()
			}
			if execErr != nil {
				fail("%s: execute: %v", class, execErr)
				continue
			}
			// collection-churn's reads are held to the snapshot
			// invariant above; everywhere else the staged bytes must be
			// the engine's, or the trace describes another pipeline
			if pass == 0 && e.churn == nil {
				engineOut.Reset()
				if err := res.SerializeXML(&engineOut); err != nil || !bytes.Equal(engineOut.Bytes(), sink.Bytes()) {
					fail("%s: staged bytes differ from the engine's: the trace is void", class)
				}
			}
		}
	}
	r.notes = append(r.notes, chk.notes...)
	return r
}

// wirePhase is serve-mix's traced phase: its clients run as in the
// timed run, with one client-side serve.request span per request; the
// server's share comes from the /metrics deltas around the phase.
func wirePhase(t *tracer, e *env, d time.Duration, m map[string]float64) (*samples, error) {
	var respBytes int64
	var mu sync.Mutex
	wrapped := *e
	wrapped.clients = make([][]op, len(e.clients))
	for c, prog := range e.clients {
		wrapped.clients[c] = make([]op, len(prog))
		for i, o := range prog {
			run := o.run
			o.run = func(sink *bytes.Buffer) error {
				id := t.begin("serve.request", t.newOp(), 0)
				err := run(sink)
				t.end(id)
				mu.Lock()
				respBytes += int64(sink.Len())
				mu.Unlock()
				return err
			}
			wrapped.clients[c][i] = o
		}
	}
	before, err := scrape(e.base)
	if err != nil {
		return nil, err
	}
	s, _, _ := runAll(&wrapped, d)
	after, err := scrape(e.base)
	if err != nil {
		return nil, err
	}
	serveMetrics(m, before, after, mean(flatten(s.lat)), respBytes)
	return s, nil
}

// traced is the traced run of one workload: a quarter of the time
// untraced (the base of trace.overhead_ratio and of the proc metrics),
// half of it staged or, for serve-mix, on the wire with client-side
// spans, then the fixed-length layer probes. End-to-end numbers are not
// reported: tracing is on.
func traced(w *workload, seed int64, sc scale, seconds float64, traceDir string) (*result, []string, error) {
	in := w.inputs(seed, sc)
	want, err := references(w, in)
	if err != nil {
		return nil, nil, err
	}
	heap0 := heapInUse()
	e, err := w.setup(in, want)
	if err != nil {
		return nil, nil, fmt.Errorf("set-up: %w", err)
	}
	defer e.close()
	heapGrowth := heapInUse() - heap0
	nodes := float64(e.db.Engine().Pool().Rows())
	m := make(map[string]float64)
	t := newTracer()
	total := time.Duration(seconds * float64(time.Second))

	warm, _, _ := runAll(e, 0)
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	plain, _, late := runAll(e, total/4)
	runtime.ReadMemStats(&ms1)
	plainLat := sorted(flatten(plain.lat))
	m["proc.alloc_kb_per_op"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / 1024 / float64(len(plainLat))
	m["proc.gc_cycles"] = float64(ms1.NumGC - ms0.NumGC)
	m["proc.gc_pause_ms"] = float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e6
	attempted, failed := warm.attempted+plain.attempted, warm.failed+plain.failed
	notes := append(warm.notes, plain.notes...)
	notes = append(notes, lateness(late)...)

	stagedFor := total / 2
	tracedP50 := 0.0 // of the traced counterpart of the untraced operations, ms
	if e.base != "" {
		stagedFor = total / 4
		s, err := wirePhase(t, e, total/4, m)
		if err != nil {
			return nil, nil, err
		}
		attempted, failed = attempted+s.attempted, failed+s.failed
		notes = append(notes, s.notes...)
		tracedP50 = percentile(sorted(flatten(s.lat)), 50)
	}
	r := stagedPasses(t, e, in, stagedFor)
	attempted, failed = attempted+r.attempted, failed+r.failed
	notes = append(notes, r.notes...)

	if err := compileProbe(t, e, m); err != nil {
		return nil, nil, err
	}
	if err := storeProbe(e, in, nodes, heapGrowth, m); err != nil {
		return nil, nil, err
	}
	if err := schedProbe(m); err != nil {
		return nil, nil, err
	}
	if e.base == "" {
		if err := wireProbe(e, m); err != nil {
			return nil, nil, err
		}
	}
	if e.churn == nil {
		if err := addProbe(t, e, in); err != nil {
			return nil, nil, err
		}
	}

	stagedP50 := spanMetrics(t, e, r, m)
	if e.base == "" {
		// collection-churn's untraced side also holds the adds, which
		// the staged side times as operations of their own
		tracedP50 = stagedP50
	}
	m["trace.overhead_ratio"] = tracedP50 / percentile(plainLat, 50)
	cov := t.coverage()
	m["trace.coverage"] = cov
	if cov < 0.9 || cov > 1.1 {
		failed++
		notes = append(notes, fmt.Sprintf("trace.coverage %.3f is outside [0.9, 1.1]: the trace is void", cov))
	}
	hits, misses, _ := e.db.Engine().CacheStats()
	m["core.plan_cache_hit_ratio"] = 0
	if hits+misses > 0 {
		m["core.plan_cache_hit_ratio"] = float64(hits) / float64(hits+misses)
	}

	path := filepath.Join(traceDir, "trace-"+w.name+".json")
	if err := t.write(path); err != nil {
		return nil, nil, err
	}
	notes = append(notes, fmt.Sprintf("%d spans of %d operations written to %s", len(t.spans), t.ops, path))
	res, err := newResult(perLayer, m)
	if err != nil {
		return nil, nil, err
	}
	res.Attempted, res.Failed, res.Correct = attempted, failed, failed == 0
	return res, notes, nil
}

// spanMetrics derives the per-layer times from the spans (medians per
// span name) and the counters from the first staged pass, and returns
// the median length of a staged operation in milliseconds.
func spanMetrics(t *tracer, e *env, r *stagedRun, m map[string]float64) (stagedP50 float64) {
	d := t.durations()
	us := func(name string) float64 { return median(d[name]) / 1e3 }
	m["xqp.parse_us"] = us("xqp.parse")
	m["xqc.compile_us"] = us("xqc.compile")
	m["opt.optimize_us"] = us("opt.optimize")
	m["planck.verify_us"] = us("planck.verify")
	m["core.snapshot_us"] = us("core.snapshot")
	m["core.add_doc_ms"] = us("core.add_doc") / 1e3
	m["ralg.run_ms"] = us("ralg.run") / 1e3
	m["store.serialize_ms"] = us("store.serialize") / 1e3
	serSec := 0.0
	for _, ns := range d["store.serialize"] {
		serSec += ns / 1e9
	}
	passes := float64(len(d["ralg.run"])) / float64(len(e.stmts))
	m["store.serialize_mb_s"] = float64(r.counts.serialized) * passes / (1 << 20) / serSec

	// Prepared.Execute minus the staged Exec.Run, per class, then the
	// median class: what core adds around the executor.
	runByClass := make([][]float64, len(e.classes))
	var rootNs []float64
	for _, s := range t.spans {
		c, staged := r.classOf[s.Op]
		switch {
		case !staged:
		case s.Parent == 0:
			rootNs = append(rootNs, float64(s.End-s.Start))
		case s.Name == "ralg.run":
			runByClass[c] = append(runByClass[c], float64(s.End-s.Start))
		}
	}
	var overhead []float64
	for c := range e.classes {
		if len(r.execNs[c]) > 0 && len(runByClass[c]) > 0 {
			overhead = append(overhead, median(r.execNs[c])-median(runByClass[c]))
		}
	}
	m["core.exec_overhead_us"] = median(overhead) / 1e3

	st := r.counts.stats
	m["ralg.rows_sorted"] = float64(st.SortedRows)
	m["ralg.full_sorts"] = float64(st.FullSorts)
	m["ralg.refine_sorts"] = float64(st.RefineSort)
	m["ralg.hash_joins"] = float64(st.HashJoins)
	m["ralg.pos_joins"] = float64(st.PosJoins)
	m["ralg.theta_nl"] = float64(st.ThetaNL)
	m["ralg.theta_idx"] = float64(st.ThetaIdx)
	m["ralg.exist_aggr"] = float64(st.ExistAggr)
	m["ralg.cross_rows"] = float64(st.CrossRows)
	m["ralg.result_items"] = float64(r.counts.items)
	m["ralg.mem_highwater_kb"] = float64(r.counts.memHW) / 1024
	m["scj.touched"] = float64(st.Step.Touched)
	m["scj.emitted"] = float64(st.Step.Emitted)
	m["scj.pruned"] = float64(st.Step.Pruned)
	m["scj.emit_ratio"] = 0
	if st.Step.Touched > 0 {
		m["scj.emit_ratio"] = float64(st.Step.Emitted) / float64(st.Step.Touched)
	}
	return percentile(sorted(rootNs), 50) / 1e6
}
