package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"mxq/internal/core"
)

const testSeed = 7

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestSpecMatchesProgram holds BENCHMARK.json and the program's own
// tables together: every workload and metric named in one is emitted by
// the other, with the same unit and direction.
func TestSpecMatchesProgram(t *testing.T) {
	sp, err := readSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(sp.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(sp.Workloads), len(workloads))
	}
	for i, w := range sp.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json %q (%q), program %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
		if !nameRE.MatchString(w.Name) || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %q: bad name or why", w.Name)
		}
	}
	if len(sp.EndToEnd) != len(endToEnd) || len(sp.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d+%d metrics, the program %d+%d", len(sp.EndToEnd), len(sp.PerLayer), len(endToEnd), len(perLayer))
	}
	seen := make(map[string]bool)
	check := func(got, want metricDef) {
		if got != want {
			t.Errorf("BENCHMARK.json %+v, program %+v", got, want)
		}
		if !nameRE.MatchString(got.Name) || seen[got.Name] {
			t.Errorf("metric name %q is malformed or repeated", got.Name)
		}
		seen[got.Name] = true
	}
	setupBound := 0.0
	for i, m := range sp.EndToEnd {
		check(m.metricDef, endToEnd[i])
		if m.Bound <= 0 || m.Bound > maxBound {
			t.Errorf("%s: bound %v outside (0, %v]", m.Name, m.Bound, maxBound)
		}
		if m.Name == "setup_s" {
			setupBound = m.Bound
		}
	}
	for _, m := range sp.EndToEnd {
		if m.Bound > setupBound {
			t.Errorf("%s has a larger bound than setup_s", m.Name)
		}
	}
	for i, m := range sp.PerLayer {
		check(m, perLayer[i])
	}
	// compile-cold must cycle through more texts than the plan cache
	// holds, or its calls stop missing
	if fullScale.ColdTexts <= core.DefaultPlanCacheSize {
		t.Errorf("%d compile-cold texts fit in the %d-entry plan cache", fullScale.ColdTexts, core.DefaultPlanCacheSize)
	}
	if sp.RunSeconds < 1 || sp.RunSeconds > 60 {
		t.Errorf("run_seconds %d", sp.RunSeconds)
	}
}

// TestEndToEndSmoke runs every workload untraced at smoke scale: every
// end-to-end metric is emitted and positive, and every output matches
// the oracle.
func TestEndToEndSmoke(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		res, notes, err := measure(w, testSeed, smokeScale, 0.2)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
			t.Errorf("%s: %d of %d failed: %v", w.name, res.Failed, res.Attempted, notes)
		}
		for _, d := range endToEnd {
			if v, ok := res.Metrics[d.Name]; !ok || v.Unit != d.Unit || !(v.Value > 0) {
				t.Errorf("%s: %s = %+v", w.name, d.Name, v)
			}
		}
	}
}

func readSpans(t *testing.T, path string) []span {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var spans []span
	if err := json.Unmarshal(raw, &spans); err != nil {
		t.Fatal(err)
	}
	return spans
}

// counter reports whether a per-layer metric is a machine-independent
// count that must repeat exactly for one seed.
func counter(d metricDef) bool {
	if d.Unit != "count" {
		return false
	}
	for _, layer := range []string{"xqp.", "xqc.", "opt.", "ralg.", "scj.", "store."} {
		if strings.HasPrefix(d.Name, layer) {
			return true
		}
	}
	return false
}

// TestTracedSmoke runs every workload traced, twice: every per-layer
// metric is emitted, spans nest inside their parent and share its
// operation, coverage is in range, and the counters of the
// single-client workloads are identical between the two runs.
func TestTracedSmoke(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		dir := t.TempDir()
		var runs [2]*result
		for r := range runs {
			res, notes, err := traced(w, testSeed, smokeScale, 0.2, dir)
			if err != nil {
				t.Fatalf("%s: %v", w.name, err)
			}
			if !res.Correct {
				t.Errorf("%s: %d of %d failed: %v", w.name, res.Failed, res.Attempted, notes)
			}
			runs[r] = res
		}
		for _, d := range perLayer {
			a, ok := runs[0].Metrics[d.Name]
			if !ok || a.Unit != d.Unit || math.IsNaN(a.Value) || math.IsInf(a.Value, 0) {
				t.Errorf("%s: %s = %+v", w.name, d.Name, a)
			}
			if b := runs[1].Metrics[d.Name]; counter(d) && w.name != "serve-mix" && a.Value != b.Value {
				t.Errorf("%s: %s differs between two runs of one seed: %v, %v", w.name, d.Name, a.Value, b.Value)
			}
		}
		if cov := runs[0].Metrics["trace.coverage"].Value; cov < 0.9 || cov > 1.1 {
			t.Errorf("%s: trace.coverage %v", w.name, cov)
		}

		spans := readSpans(t, filepath.Join(dir, "trace-"+w.name+".json"))
		if len(spans) == 0 {
			t.Fatalf("%s: no spans", w.name)
		}
		for _, s := range spans {
			if s.ID < 1 || s.ID > len(spans) || spans[s.ID-1].ID != s.ID || s.End < s.Start || s.Op < 1 {
				t.Fatalf("%s: malformed span %+v", w.name, s)
			}
			if s.Parent == 0 {
				continue
			}
			p := spans[s.Parent-1]
			if p.Op != s.Op || s.Start < p.Start || s.End > p.End {
				t.Errorf("%s: span %+v does not nest in its parent %+v", w.name, s, p)
			}
		}
	}
}

// TestWrongOutputFails corrupts one reference: the run must count
// failures, which makes the command exit non-zero.
func TestWrongOutputFails(t *testing.T) {
	w := findWorkload("xmark-join")
	in := w.inputs(testSeed, smokeScale)
	want, err := computeOracle(in)
	if err != nil {
		t.Fatal(err)
	}
	want[2].Digest = digest([]byte("not the result"))
	e, err := w.setup(in, want)
	if err != nil {
		t.Fatal(err)
	}
	defer e.close()
	s, _, _ := runAll(e, 0)
	if s.failed != 1 || s.attempted != len(in.Refs) {
		t.Errorf("%d of %d failed, want 1 of %d: %v", s.failed, s.attempted, len(in.Refs), s.notes)
	}
}

// TestChurnInvariant exercises the snapshot invariant on made-up reads.
func TestChurnInvariant(t *testing.T) {
	c := &churn{}
	for i := range churnQueries {
		c.base[i], c.delta[i] = churnRef{n: 10}, churnRef{n: 3}
	}
	c.base[2], c.delta[2] = churnRef{names: []string{"<n>a b</n>", "<n>c</n>"}}, churnRef{names: []string{"<n>d</n>"}}
	c.issued.Store(2)
	for _, tc := range []struct {
		q    int
		out  string
		done int64
		ok   bool
	}{
		{0, "10", 0, true},                                  // no add seen
		{0, "13", 0, true},                                  // one add seen
		{2, "<n>d</n><n>c</n><n>a b</n>", 1, true},          // names in another order
		{0, "10", 1, false},                                 // k went back, and misses a registered add
		{0, "14", 0, false},                                 // not base + k*delta
		{0, "19", 0, false},                                 // more adds than issued
		{2, "<n>d</n><n>c</n><n>a b</n><n>x</n>", 0, false}, // a name the oracle never produced
		{1, "16", 2, true},                                  // both adds seen
	} {
		c.doneAtStart = tc.done
		if err := c.check(tc.q, []byte(tc.out)); (err == nil) != tc.ok {
			t.Errorf("check(%d, %q, done %d) = %v, want ok=%v", tc.q, tc.out, tc.done, err, tc.ok)
		}
	}
}

// TestSpreadMatchesPython pins the quartile rule to
// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25].
func TestSpreadMatchesPython(t *testing.T) {
	v := []float64{3, 1, 2, 10, 9, 8, 4, 5, 7, 6}
	if got := spread(v); math.Abs(got-1.0) > 1e-12 {
		t.Errorf("spread = %v, want (8.25-2.75)/5.5 = 1", got)
	}
	if got := boundFor(0.021); got != 0.07 {
		t.Errorf("boundFor(0.021) = %v, want 0.07", got)
	}
}
