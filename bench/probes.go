package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"time"

	"mxq"
	"mxq/internal/core"
	"mxq/internal/opt"
	"mxq/internal/planck"
	"mxq/internal/ralg"
	"mxq/internal/sched"
	"mxq/internal/scj"
	"mxq/internal/store"
	"mxq/internal/xmark"
	"mxq/internal/xqc"
	"mxq/internal/xqp"
)

// The probes of the traced run: fixed-length measurements of one layer
// each, taken on the workload's own documents and statements after its
// traced phase. They give every workload every per-layer metric, also
// for the layers its operations do not pass through.

// scrapeClient opens a connection per scrape, so that no idle
// connection to a stopped server stays behind.
var scrapeClient = &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}

// scrape reads the server's /metrics into name -> value.
func scrape(base string) (map[string]float64, error) {
	resp, err := scrapeClient.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := make(map[string]float64)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) == 2 && !strings.HasPrefix(f[0], "#") {
			if v, err := strconv.ParseFloat(f[1], 64); err == nil {
				out[f[0]] = v
			}
		}
	}
	return out, sc.Err()
}

// serveMetrics turns two /metrics scrapes around a wire phase, and the
// clients' mean latency over it, into the serve and sched metrics.
func serveMetrics(m map[string]float64, before, after map[string]float64, clientMeanMs float64, respBytes int64) {
	delta := func(k string) float64 { return after[k] - before[k] }
	n := delta("mxqd_query_seconds_count")
	serverMs := 0.0
	if n > 0 {
		serverMs = delta("mxqd_query_seconds_sum") / n * 1000
	}
	m["serve.server_ms"] = serverMs
	m["serve.wire_overhead_ms"] = clientMeanMs - serverMs
	m["serve.requests"] = delta("mxqd_queries_total")
	m["serve.errors"] = delta("mxqd_query_errors_total") + delta("mxqd_compile_errors_total") + delta("mxqd_serialize_failures_total")
	m["serve.resp_kb"] = float64(respBytes) / 1024
	m["sched.queue_wait_ms"] = 0
	if wn := delta("mxqd_queue_wait_seconds_count"); wn > 0 {
		m["sched.queue_wait_ms"] = delta("mxqd_queue_wait_seconds_sum") / wn * 1000
	}
	m["sched.admitted"] = delta("mxqd_sched_admitted_total")
	m["sched.rejected"] = delta("mxqd_rejected_total")
	m["sched.slots_in_use_max"] = after["mxqd_sched_slots_in_use_max"]
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}

// wireProbe gives the workloads that have no server of their own the
// serve and sched metrics all the same: it serves the workload's
// database on a loopback listener and posts each of its statements
// (at most maxWireProbe) once as a one-shot query, from one client.
func wireProbe(e *env, m map[string]float64) error {
	base, stopServer, err := startServer(e.db)
	if err != nil {
		return err
	}
	tr := &http.Transport{MaxIdleConnsPerHost: 1}
	hc := &http.Client{Transport: tr}
	defer func() {
		tr.CloseIdleConnections()
		stopServer()
	}()
	before, err := scrape(base)
	if err != nil {
		return err
	}
	var lat []float64
	var respBytes int64
	var sink bytes.Buffer
	for i, st := range e.stmts {
		if i == maxWireProbe {
			break
		}
		body, err := json.Marshal(map[string]string{"query": st.query})
		if err != nil {
			return err
		}
		sink.Reset()
		t0 := time.Now()
		if err := wirePost(hc, base+"/query", body, &sink); err != nil {
			return fmt.Errorf("wire probe: %s: %w", e.classes[st.class], err)
		}
		lat = append(lat, ms(time.Since(t0)))
		respBytes += int64(sink.Len())
	}
	after, err := scrape(base)
	if err != nil {
		return err
	}
	serveMetrics(m, before, after, mean(lat), respBytes)
	return nil
}

const maxWireProbe = 100

// compileProbe measures the compile path of every statement text,
// stage by stage (one prepare: root span each, with planck.Verify as a
// span of its own, since it is off the engine's default path), counts
// plan sizes and rewrites, and times Engine.Prepare on a miss and on a
// hit against a fresh engine.
func compileProbe(t *tracer, e *env, m map[string]float64) error {
	fresh := core.New(core.DefaultConfig())
	var miss, hit []float64
	var bytesTotal, ops, joins, opsAfter, rewrites float64
	for _, st := range e.stmts {
		id := t.newOp()
		root := t.begin("prepare:"+e.classes[st.class], id, 0)
		cq, err := compileStages(t, id, root, st.query)
		if err != nil {
			return err
		}
		child := t.begin("planck.verify", id, root)
		err = planck.Verify(cq.Plan, planck.Config{RequireItem: true})
		t.end(child)
		t.end(root)
		if err != nil {
			return fmt.Errorf("planck: %s: %w", e.classes[st.class], err)
		}
		after, _ := ralg.CountOps(cq.Plan)
		opsAfter += float64(after)
		bytesTotal += float64(len(st.query))

		// the same text again, unoptimized, for the plan size the
		// compiler emits and the number of rewrites the optimizer fires
		mod, err := xqp.Parse(st.query)
		if err != nil {
			return err
		}
		raw, err := xqc.Compile(mod, xqc.DefaultOptions())
		if err != nil {
			return err
		}
		o, j := ralg.CountOps(raw.Plan)
		ops += float64(o)
		joins += float64(j)
		opt.OptimizeTraced(raw.Plan, func(opt.RewriteStep) { rewrites++ })

		t0 := time.Now()
		if _, err := fresh.Prepare(st.query); err != nil {
			return err
		}
		t1 := time.Now()
		if _, err := fresh.Prepare(st.query); err != nil {
			return err
		}
		miss = append(miss, float64(t1.Sub(t0)))
		hit = append(hit, float64(time.Since(t1)))
	}
	m["xqp.query_bytes"] = bytesTotal
	m["xqc.plan_ops"] = ops
	m["xqc.plan_joins"] = joins
	m["opt.rewrites"] = rewrites
	m["opt.plan_ops_after"] = opsAfter
	m["core.prepare_miss_us"] = median(miss) / 1e3
	m["core.prepare_hit_us"] = median(hit) / 1e3
	return nil
}

// mainContainer is the document the store and scj probes run on: the
// workload's document, or the first shard of its collection.
func mainContainer(e *env) (*store.Container, error) {
	pool := e.db.Engine().Pool()
	if c, ok := pool.ByName(docName); ok {
		return c, nil
	}
	if sp, ok := pool.Collection(collName); ok && sp.K() > 0 {
		return sp.Shards()[0], nil
	}
	return nil, fmt.Errorf("no document to probe")
}

// scjReplay replays a fixed list of axis x node-test steps directly
// against the staircase-join kernel, each chain starting from the root
// context, and reports nanoseconds per tuple touched: nothing inside
// Exec.Run may be instrumented, so this is where scj's time comes from.
func scjReplay(c *store.Container) float64 {
	type step struct {
		axis scj.Axis
		test scj.Test
		v    scj.Variant
	}
	elem := func(name string) scj.Test { return scj.Test{Kind: scj.TestElem, Name: name} }
	chains := [][]step{
		{{scj.Descendant, elem(""), scj.LoopLifted}},
		{{scj.Descendant, scj.Test{Kind: scj.TestText}, scj.LoopLifted}},
		{{scj.Descendant, elem("keyword"), scj.CandidateList}, {scj.Ancestor, elem(""), scj.LoopLifted}},
		{{scj.Descendant, elem("bidder"), scj.CandidateList}, {scj.FollowingSibling, elem("bidder"), scj.LoopLifted}},
		{{scj.Child, elem(""), scj.LoopLifted}, {scj.Child, elem(""), scj.LoopLifted}, {scj.Child, elem(""), scj.LoopLifted}},
		{{scj.Descendant, elem("listitem"), scj.CandidateList}, {scj.Descendant, elem("keyword"), scj.CandidateList}},
	}
	var st scj.Stats
	t0 := time.Now()
	for rep := 0; rep < scjReplays; rep++ {
		for _, chain := range chains {
			ctx := scj.Pairs{Pre: []int32{0}, Iter: []int32{0}}
			for _, s := range chain {
				ctx = scj.Step(c, ctx, s.axis, s.test, s.v, &st)
				// a step's output may hold a node once per iteration;
				// all share iteration 0 here, so it is a valid context
			}
		}
	}
	if st.Touched == 0 {
		return 0
	}
	return float64(time.Since(t0)) / float64(st.Touched)
}

const scjReplays = 5

// storeProbe measures shredding (on the XML text of a document of the
// workload's factor, capped so that it stays a probe), cloning and the
// resident size of the workload's documents.
func storeProbe(e *env, in *inputs, nodes float64, heapGrowth uint64, m map[string]float64) error {
	c, err := mainContainer(e)
	if err != nil {
		return err
	}
	var xml bytes.Buffer
	if err := xmark.WriteXML(&xml, min(in.Factor, maxShredFactor), in.Seed); err != nil {
		return err
	}
	var shred, clone []float64
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		if _, err := store.Shred("probe.xml", bytes.NewReader(xml.Bytes()), false); err != nil {
			return err
		}
		shred = append(shred, time.Since(t0).Seconds())
		t0 = time.Now()
		_ = c.Clone()
		clone = append(clone, ms(time.Since(t0)))
	}
	m["store.shred_mb_s"] = float64(xml.Len()) / (1 << 20) / median(shred)
	m["store.clone_ms"] = median(clone)
	m["store.nodes"] = nodes
	m["store.heap_bytes_per_node"] = float64(heapGrowth) / nodes
	m["scj.step_ns_per_touched"] = scjReplay(c)
	return nil
}

const maxShredFactor = 0.05

// schedProbe times an uncontended Admit+Release pair.
func schedProbe(m map[string]float64) error {
	s := sched.New(sched.Config{})
	const n = 20000
	t0 := time.Now()
	for i := 0; i < n; i++ {
		g, err := s.Admit(context.Background(), sched.Cost{})
		if err != nil {
			return err
		}
		g.Release()
	}
	m["sched.admit_us"] = float64(time.Since(t0)) / n / 1e3
	return nil
}

// addProbe gives the workloads that never add a document the cost of
// one add all the same: a one-document collection of the churn
// workload's added document, grown ten times.
func addProbe(t *tracer, e *env, in *inputs) error {
	const probe = "bench-add-probe"
	e.db.LoadXMarkCollection(probe, 1, 1, in.Scale.DeltaFactor, in.Seed+deltaSeed)
	xml := deltaXML(in)
	for i := 0; i < 10; i++ {
		id := t.begin("core.add_doc", t.newOp(), 0)
		err := e.db.AddToCollection(probe, mxq.DocString(fmt.Sprintf("p%d.xml", i), xml))
		t.end(id)
		if err != nil {
			return err
		}
	}
	return nil
}

func heapInUse() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}
