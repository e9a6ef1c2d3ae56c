package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// metricDef names one metric the benchmark prints. The tables below are
// the program's side of BENCHMARK.json; bench_test.go holds the two
// together, so a name, unit or direction cannot drift between them.
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// endToEnd lists what a user of the engine sees, per workload. Every
// workload reports every one of them (the add class of collection-churn
// carries write latency into the op_* metrics, see README.md).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"op_p50_ms", "ms", "lower"},
	{"op_p95_ms", "ms", "lower"},
	{"op_geomean_ms", "ms", "lower"},
	{"throughput_ops_s", "ops/s", "higher"},
	{"peak_rss_mb", "MB", "lower"},
}

// perLayer lists the traced run's metrics; the prefix is the module.
var perLayer = []metricDef{
	{"xqp.parse_us", "us", "lower"},
	{"xqp.query_bytes", "count", "lower"},
	{"xqc.compile_us", "us", "lower"},
	{"xqc.plan_ops", "count", "lower"},
	{"xqc.plan_joins", "count", "lower"},
	{"opt.optimize_us", "us", "lower"},
	{"opt.rewrites", "count", "higher"},
	{"opt.plan_ops_after", "count", "lower"},
	{"planck.verify_us", "us", "lower"},
	{"core.prepare_miss_us", "us", "lower"},
	{"core.prepare_hit_us", "us", "lower"},
	{"core.plan_cache_hit_ratio", "ratio", "higher"},
	{"core.snapshot_us", "us", "lower"},
	{"core.exec_overhead_us", "us", "lower"},
	{"core.add_doc_ms", "ms", "lower"},
	{"ralg.run_ms", "ms", "lower"},
	{"ralg.rows_sorted", "count", "lower"},
	{"ralg.full_sorts", "count", "lower"},
	{"ralg.refine_sorts", "count", "lower"},
	{"ralg.hash_joins", "count", "lower"},
	{"ralg.pos_joins", "count", "lower"},
	{"ralg.theta_nl", "count", "lower"},
	{"ralg.theta_idx", "count", "lower"},
	{"ralg.exist_aggr", "count", "lower"},
	{"ralg.cross_rows", "count", "lower"},
	{"ralg.result_items", "count", "lower"},
	{"ralg.mem_highwater_kb", "KB", "lower"},
	{"scj.touched", "count", "lower"},
	{"scj.emitted", "count", "lower"},
	{"scj.pruned", "count", "higher"},
	{"scj.emit_ratio", "ratio", "higher"},
	{"scj.step_ns_per_touched", "ns", "lower"},
	{"store.shred_mb_s", "MB/s", "higher"},
	{"store.serialize_mb_s", "MB/s", "higher"},
	{"store.serialize_ms", "ms", "lower"},
	{"store.nodes", "count", "lower"},
	{"store.heap_bytes_per_node", "B", "lower"},
	{"store.clone_ms", "ms", "lower"},
	{"sched.admit_us", "us", "lower"},
	{"sched.queue_wait_ms", "ms", "lower"},
	{"sched.admitted", "count", "higher"},
	{"sched.rejected", "count", "lower"},
	{"sched.slots_in_use_max", "count", "lower"},
	{"serve.server_ms", "ms", "lower"},
	{"serve.wire_overhead_ms", "ms", "lower"},
	{"serve.requests", "count", "higher"},
	{"serve.errors", "count", "lower"},
	{"serve.resp_kb", "KB", "lower"},
	{"proc.alloc_kb_per_op", "KB", "lower"},
	{"proc.gc_cycles", "count", "lower"},
	{"proc.gc_pause_ms", "ms", "lower"},
	{"trace.coverage", "ratio", "higher"},
	{"trace.overhead_ratio", "ratio", "lower"},
}

// spec mirrors BENCHMARK.json.
type spec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		metricDef
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readSpec(path string) (*spec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// metricValue is one printed metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a single-workload run prints on standard
// output, in the shape the benchmark contract fixes.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func newResult(defs []metricDef, vals map[string]float64) (*result, error) {
	r := &result{Metrics: make(map[string]metricValue, len(defs))}
	for _, d := range defs {
		v, ok := vals[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
		r.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	if len(vals) != len(defs) {
		return nil, fmt.Errorf("%d metrics measured, %d declared", len(vals), len(defs))
	}
	return r, nil
}
