package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"text/tabwriter"
)

// record is what -json and -repeat write and -compare reads: where and
// on what the numbers were taken, and one entry per run of the set.
type record struct {
	GoVersion  string  `json:"go_version"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NProc      int     `json:"nproc"`
	Commit     string  `json:"commit"`
	Scale      string  `json:"scale"`
	Seconds    float64 `json:"seconds"`
	Runs       []runOf `json:"runs"`
}

// runOf is every workload once, on one seed, traced or not.
type runOf struct {
	Seed    int64              `json:"seed"`
	Trace   int                `json:"trace"`
	Results map[string]*result `json:"results"`
}

func newRecord(seconds float64, smoke bool) *record {
	r := &record{
		GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NProc: runtime.NumCPU(),
		Commit: "unknown", Scale: "full", Seconds: seconds,
	}
	if smoke {
		r.Scale = "smoke"
	}
	// best effort: a checkout that is not a git repository has no commit
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		r.Commit = strings.TrimSpace(string(out))
	}
	return r
}

func (r *record) write(path string) error {
	raw, err := json.MarshalIndent(r, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

func readRecord(path string) (*record, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r record
	if err := json.Unmarshal(raw, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// runSet runs every workload once, each in a child process of its own,
// so that peak_rss_mb and the collector's state are per workload.
func runSet(seed int64, seconds float64, trace int, smoke bool) (runOf, error) {
	exe, err := os.Executable()
	if err != nil {
		return runOf{}, err
	}
	set := runOf{Seed: seed, Trace: trace, Results: make(map[string]*result)}
	var failures []string
	for _, w := range workloads {
		args := []string{"-workload", w.name, "-seed", strconv.FormatInt(seed, 10),
			"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", strconv.Itoa(trace)}
		if smoke {
			args = append(args, "-smoke")
		}
		cmd := exec.Command(exe, args...)
		cmd.Stderr = os.Stderr
		out, runErr := cmd.Output() // Output waits for the child to exit
		lines := strings.Split(strings.TrimSpace(string(out)), "\n")
		var res result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			return set, fmt.Errorf("%s: no result (%v)", w.name, errors.Join(runErr, err))
		}
		set.Results[w.name] = &res
		if runErr != nil || !res.Correct {
			failures = append(failures, fmt.Sprintf("%s: %d of %d operations failed", w.name, res.Failed, res.Attempted))
		}
	}
	if failures != nil {
		return set, errors.New(strings.Join(failures, "; "))
	}
	return set, nil
}

func defsFor(trace int) []metricDef {
	if trace == 1 {
		return perLayer
	}
	return endToEnd
}

// printSet prints one row per metric and one column per workload.
func printSet(set runOf) {
	tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprint(tw, "metric\tunit\t")
	for _, w := range workloads {
		fmt.Fprint(tw, w.name, "\t")
	}
	fmt.Fprintln(tw)
	for _, d := range defsFor(set.Trace) {
		fmt.Fprint(tw, d.Name, "\t", d.Unit, "\t")
		for _, w := range workloads {
			fmt.Fprintf(tw, "%.5g\t", set.Results[w.name].Metrics[d.Name].Value)
		}
		fmt.Fprintln(tw)
	}
	fmt.Fprint(tw, "failed/attempted\t\t")
	for _, w := range workloads {
		r := set.Results[w.name]
		fmt.Fprintf(tw, "%d/%d\t", r.Failed, r.Attempted)
	}
	fmt.Fprintln(tw)
	tw.Flush()
}

func runAllWorkloads(seed int64, seconds float64, trace int, smoke bool, out string) error {
	rec := newRecord(seconds, smoke)
	fmt.Printf("go %s, GOMAXPROCS %d, nproc %d, commit %s, seed %d, %s scale, %gs per run\n",
		rec.GoVersion, rec.GOMAXPROCS, rec.NProc, rec.Commit, seed, rec.Scale, seconds)
	set, err := runSet(seed, seconds, trace, smoke)
	if len(set.Results) == len(workloads) {
		printSet(set)
	}
	rec.Runs = append(rec.Runs, set)
	if out != "" {
		if werr := rec.write(out); werr != nil {
			return werr
		}
	}
	return err
}

// values collects one end-to-end metric of one workload over the
// untraced runs of a record.
func (r *record) values(workload, metric string) []float64 {
	var v []float64
	for _, run := range r.Runs {
		if res := run.Results[workload]; run.Trace == 0 && res != nil {
			if mv, ok := res.Metrics[metric]; ok {
				v = append(v, mv.Value)
			}
		}
	}
	return v
}

// spread is the distance between the first and third quartile as a
// share of the median, with the quartiles of Python's
// statistics.quantiles(values, n=4) (the exclusive method), which is
// what the acceptance of this benchmark is computed with. It needs at
// least two values and is reported as NaN below that.
func spread(v []float64) float64 {
	if len(v) < 2 {
		return math.NaN()
	}
	s := sorted(v)
	q := func(k int) float64 {
		pos := float64(k) * float64(len(s)+1) / 4
		j := int(pos)
		j = min(max(j, 1), len(s)-1)
		d := pos - float64(j)
		return s[j-1] + d*(s[j]-s[j-1])
	}
	return (q(3) - q(1)) / median(s)
}

// boundFor derives a regression bound from a measured spread: three
// times the spread (the acceptance wants a spread below a third of the
// bound), at least minBound, rounded up to a whole percent.
func boundFor(sp float64) float64 {
	return math.Max(minBound, math.Ceil(3*sp*100)/100)
}

const (
	minBound = 0.05
	maxBound = 0.25 // the contract's ceiling; a metric above it is too noisy to bound
)

// repeatAll runs the whole set n times on seeds seed..seed+n-1, as the
// acceptance does, then once traced on the first seed, prints each
// end-to-end metric's min, median, max and spread per workload, and
// derives the bound each metric needs in BENCHMARK.json.
func repeatAll(specPath string, seed int64, n int, seconds float64, smoke bool, out string) error {
	rec := newRecord(seconds, smoke)
	var firstErr error
	for i := 0; i <= n; i++ {
		s, trace := seed+int64(i), 0
		if i == n {
			s, trace = seed, 1
		}
		fmt.Fprintf(os.Stderr, "bench: set %d of %d (seed %d, trace %d)\n", i+1, n+1, s, trace)
		set, err := runSet(s, seconds, trace, smoke)
		if err != nil && firstErr == nil {
			firstErr = err
		}
		rec.Runs = append(rec.Runs, set)
	}
	if out != "" {
		if err := rec.write(out); err != nil {
			return err
		}
	}
	declared := make(map[string]float64)
	if sp, err := readSpec(specPath); err == nil {
		for _, m := range sp.EndToEnd {
			declared[m.Name] = m.Bound
		}
	}
	tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tmin\tmedian\tmax\tspread\t")
	need := make(map[string]float64)
	for _, w := range workloads {
		for _, d := range endToEnd {
			v := sorted(rec.values(w.name, d.Name))
			if len(v) == 0 {
				continue
			}
			sp := spread(v)
			need[d.Name] = math.Max(need[d.Name], sp)
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.5g\t%.5g\t%.5g\t%.4f\t\n", w.name, d.Name, d.Unit, v[0], median(v), v[len(v)-1], sp)
		}
	}
	tw.Flush()
	fmt.Println()
	tw = tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "metric\tworst spread\tderived bound\tBENCHMARK.json\t")
	for _, d := range endToEnd {
		b := boundFor(need[d.Name])
		verdict := fmt.Sprintf("%.2f", b)
		if b > maxBound {
			verdict += " (too noisy to bound: lengthen the run or demote to per-layer)"
		}
		fmt.Fprintf(tw, "%s\t%.4f\t%s\t%.2f\t\n", d.Name, need[d.Name], verdict, declared[d.Name])
	}
	tw.Flush()
	if last := rec.Runs[len(rec.Runs)-1]; len(last.Results) == len(workloads) {
		fmt.Println()
		printSet(last)
	}
	return firstErr
}

// compareRecords prints, per workload and end-to-end metric, both
// medians, their ratio with its base, and a verdict against the bound
// in BENCHMARK.json; then the per-layer counters of the traced runs
// with exact-equality marks. It fails on any "worse" and on any rise in
// the share of failed operations.
func compareRecords(specPath string, args []string) error {
	if len(args) != 2 {
		return errors.New("usage: bench -compare old.json new.json")
	}
	sp, err := readSpec(specPath)
	if err != nil {
		return err
	}
	a, err := readRecord(args[0])
	if err != nil {
		return err
	}
	b, err := readRecord(args[1])
	if err != nil {
		return err
	}
	bad := 0
	tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "workload\tmetric\told\tnew\tnew/old\tbound\tverdict\t")
	for _, w := range sp.Workloads {
		for _, m := range sp.EndToEnd {
			va, vb := a.values(w.Name, m.Name), b.values(w.Name, m.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			ma, mb := median(va), median(vb)
			ratio := mb / ma
			worse := ratio - 1 // share by which new is worse than old
			if m.Better == "higher" {
				worse = 1 - ratio
			}
			verdict := "within"
			switch sa, sb := spread(va), spread(vb); {
			case sa > m.Bound || sb > m.Bound:
				verdict = "unresolved" // the runs of one side disagree by more than the bound
			case worse > m.Bound:
				verdict = "worse"
				bad++
			case worse < -m.Bound:
				verdict = "better"
			}
			fmt.Fprintf(tw, "%s\t%s\t%.5g\t%.5g\t%.4f of %.5g\t%.2f\t%s\t\n", w.Name, m.Name, ma, mb, ratio, ma, m.Bound, verdict)
		}
		fa, fb := a.failRatio(w.Name), b.failRatio(w.Name)
		verdict := "same"
		if fb > fa {
			verdict = "worse"
			bad++
		}
		fmt.Fprintf(tw, "%s\tfail_ratio\t%.5g\t%.5g\t\t0\t%s\t\n", w.Name, fa, fb, verdict)
	}
	tw.Flush()

	ta, tb := a.traced(), b.traced()
	if ta != nil && tb != nil {
		fmt.Println()
		tw = tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', tabwriter.AlignRight)
		fmt.Fprintln(tw, "workload\tcounter\told\tnew\t\t")
		for _, w := range sp.Workloads {
			ra, rb := ta.Results[w.Name], tb.Results[w.Name]
			if ra == nil || rb == nil {
				continue
			}
			for _, m := range sp.PerLayer {
				if m.Unit != "count" {
					continue
				}
				x, y := ra.Metrics[m.Name].Value, rb.Metrics[m.Name].Value
				mark := "="
				if x != y {
					mark = "≠"
				}
				fmt.Fprintf(tw, "%s\t%s\t%.10g\t%.10g\t%s\t\n", w.Name, m.Name, x, y, mark)
			}
		}
		tw.Flush()
	}
	if bad > 0 {
		return fmt.Errorf("%d regressions", bad)
	}
	return nil
}

func (r *record) failRatio(workload string) float64 {
	failed, attempted := 0, 0
	for _, run := range r.Runs {
		if res := run.Results[workload]; res != nil {
			failed += res.Failed
			attempted += res.Attempted
		}
	}
	if attempted == 0 {
		return 0
	}
	return float64(failed) / float64(attempted)
}

// traced returns the record's first traced run, if it has one.
func (r *record) traced() *runOf {
	for i := range r.Runs {
		if r.Runs[i].Trace == 1 {
			return &r.Runs[i]
		}
	}
	return nil
}
