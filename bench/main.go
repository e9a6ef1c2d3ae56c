// Command bench is the repository's benchmark: five XMark-derived
// workloads, each run in its own process, checked against the naive
// oracle, and reported as the end-to-end metrics of BENCHMARK.json or,
// with -trace 1, as per-layer metrics. See README.md.
//
//	bench -workload xmark-join -seed 7 -seconds 10 -trace 0   # one run, one JSON line
//	bench [-trace 1] [-json out.json]                          # every workload, as a table
//	bench -repeat 10 -json bench/BASELINE.json                 # spreads and derived bounds
//	bench -compare old.json new.json                           # verdict per workload and metric
//	bench -regen-golden                                        # rewrite bench/golden from the oracle
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

func main() {
	var (
		workloadFlag = flag.String("workload", "all", "workload to run, or all")
		seedFlag     = flag.Int64("seed", goldenSeed, "seed of the documents, query texts, bind values and client mix")
		secondsFlag  = flag.Float64("seconds", 0, "length of the timed phase (default: run_seconds of BENCHMARK.json)")
		traceFlag    = flag.Int("trace", 0, "1 runs the traced variant and reports the per-layer metrics")
		smokeFlag    = flag.Bool("smoke", false, "tiny documents and programs, for a quick check")
		jsonFlag     = flag.String("json", "", "with -workload all or -repeat: write the record to this file")
		repeatFlag   = flag.Int("repeat", 0, "run every workload N times on seeds seed..seed+N-1 and report spreads")
		compareFlag  = flag.Bool("compare", false, "compare two records: bench -compare old.json new.json")
		specFlag     = flag.String("spec", "BENCHMARK.json", "path of BENCHMARK.json")
		regenFlag    = flag.Bool("regen-golden", false, "recompute the golden references with the oracle")
		goldenDir    = flag.String("golden-dir", "bench/golden", "where -regen-golden writes")
		traceDir     = flag.String("trace-dir", ".bench_build", "where the traced run writes trace-<workload>.json")
		oracleFlag   = flag.Bool("oracle", false, "internal: print the oracle's references for -workload and -seed")
	)
	flag.Parse()
	sc := fullScale
	if *smokeFlag {
		sc = smokeScale
	}
	seconds := *secondsFlag
	if seconds == 0 {
		seconds = 10
		if s, err := readSpec(*specFlag); err == nil {
			seconds = float64(s.RunSeconds)
		}
	}

	var err error
	switch {
	case *regenFlag:
		err = regenGolden(*goldenDir)
	case *compareFlag:
		err = compareRecords(*specFlag, flag.Args())
	case *oracleFlag:
		err = printOracle(*workloadFlag, *seedFlag, sc)
	case *repeatFlag > 0:
		err = repeatAll(*specFlag, *seedFlag, *repeatFlag, seconds, *smokeFlag, *jsonFlag)
	case *workloadFlag == "all":
		err = runAllWorkloads(*seedFlag, seconds, *traceFlag, *smokeFlag, *jsonFlag)
	default:
		err = runOne(*workloadFlag, *seedFlag, sc, seconds, *traceFlag == 1, *traceDir)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func printOracle(name string, seed int64, sc scale) error {
	w := findWorkload(name)
	if w == nil {
		return fmt.Errorf("unknown workload %q", name)
	}
	out, err := computeOracle(w.inputs(seed, sc))
	if err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(out)
}

// runOne is the contract's single run: diagnostics go to standard
// error, and the last line of standard output is the result object.
func runOne(name string, seed int64, sc scale, seconds float64, trace bool, traceDir string) error {
	w := findWorkload(name)
	if w == nil {
		return fmt.Errorf("unknown workload %q", name)
	}
	var (
		res   *result
		notes []string
		err   error
	)
	if trace {
		res, notes, err = traced(w, seed, sc, seconds, traceDir)
	} else {
		res, notes, err = measure(w, seed, sc, seconds)
	}
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	for _, n := range notes {
		fmt.Fprintf(os.Stderr, "bench: %s: %s\n", name, n)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return fmt.Errorf("%s: %d of %d operations failed", name, res.Failed, res.Attempted)
	}
	return nil
}
