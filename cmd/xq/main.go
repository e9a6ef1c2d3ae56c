// Command xq is an interactive XQuery runner over the MonetDB/XQuery
// reproduction engine.
//
// Usage:
//
//	xq -doc auction.xml 'for $p in /site/people/person return $p/name'
//	xq -xmark 0.01 'count(//item)'
//	echo 'count(//item)' | xq -xmark 0.01
//
// Queries whose prolog declares external variables take their values
// from repeatable -var flags, typed via an optional prefix (the
// default is string):
//
//	xq -xmark 0.01 -var min=int:40 -var tag=price \
//	  'declare variable $min external; declare variable $tag external;
//	   count(//*[local-name(.) = $tag][number(.) > $min])'
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"mxq"
)

// varBinding is one parsed -var flag: an external variable name and
// its typed value.
type varBinding struct {
	name string
	val  mxq.Value
}

// varFlags collects repeatable -var name=value flags. Values are typed
// with a prefix: int:, float:, bool: (anything else binds a string).
type varFlags []varBinding

func (v *varFlags) String() string {
	names := make([]string, len(*v))
	for i, b := range *v {
		names[i] = b.name
	}
	return strings.Join(names, ",")
}

func (v *varFlags) Set(s string) error {
	name, raw, ok := strings.Cut(s, "=")
	if !ok || name == "" {
		return fmt.Errorf("-var wants name=value, got %q", s)
	}
	var val mxq.Value
	switch {
	case strings.HasPrefix(raw, "int:"):
		n, err := strconv.ParseInt(raw[len("int:"):], 10, 64)
		if err != nil {
			return fmt.Errorf("-var %s: %v", name, err)
		}
		val = mxq.Int(n)
	case strings.HasPrefix(raw, "float:"):
		f, err := strconv.ParseFloat(raw[len("float:"):], 64)
		if err != nil {
			return fmt.Errorf("-var %s: %v", name, err)
		}
		val = mxq.Float(f)
	case strings.HasPrefix(raw, "bool:"):
		b, err := strconv.ParseBool(raw[len("bool:"):])
		if err != nil {
			return fmt.Errorf("-var %s: %v", name, err)
		}
		val = mxq.Bool(b)
	default:
		val = mxq.String(raw)
	}
	*v = append(*v, varBinding{name: name, val: val})
	return nil
}

func main() {
	var (
		docPath  = flag.String("doc", "", "XML document to load as the context document")
		xmarkF   = flag.Float64("xmark", 0, "generate an XMark document at this scale factor instead of loading one")
		seed     = flag.Int64("seed", 42, "XMark generator seed")
		explain  = flag.Bool("explain", false, "print the plan and the run's sort, theta-join and construction counters instead of the result")
		rewrites = flag.Bool("rewrite-coverage", false, "print which optimizer rewrite rules fired on the query instead of running it")
		noJoin   = flag.Bool("no-joinrec", false, "disable join recognition")
		noOrder  = flag.Bool("no-order", false, "disable the order-aware peephole optimizer")
		noLifted = flag.Bool("no-looplift", false, "use per-iteration staircase joins")
		parallel = flag.Bool("parallel", false, "parallel intra-query execution")
		workers  = flag.Int("workers", 0, "parallel worker goroutines (0 = GOMAXPROCS)")
		timing   = flag.Bool("time", false, "print evaluation time")
	)
	var vars varFlags
	flag.Var(&vars, "var", "bind an external variable: name=value, name=int:N, name=float:F, name=bool:B (repeatable)")
	flag.Parse()

	var opts []mxq.Option
	if *noJoin {
		opts = append(opts, mxq.WithJoinRecognition(false))
	}
	if *noOrder {
		opts = append(opts, mxq.WithOrderOptimizer(false))
	}
	if *noLifted {
		opts = append(opts, mxq.WithLoopLiftedSteps(false))
	}
	if *parallel {
		opts = append(opts, mxq.WithParallel(true))
	}
	if *workers > 0 {
		opts = append(opts, mxq.WithWorkers(*workers))
	}
	db := mxq.Open(opts...)

	switch {
	case *docPath != "":
		f, err := os.Open(*docPath)
		if err != nil {
			fatal(err)
		}
		err = db.LoadDocument(*docPath, f)
		f.Close()
		if err != nil {
			fatal(err)
		}
	case *xmarkF > 0:
		db.LoadXMark("auction.xml", *xmarkF, *seed)
	default:
		fmt.Fprintln(os.Stderr, "xq: provide -doc FILE or -xmark FACTOR")
		os.Exit(2)
	}

	query := strings.Join(flag.Args(), " ")
	if strings.TrimSpace(query) == "" {
		data, err := io.ReadAll(os.Stdin)
		if err != nil {
			fatal(err)
		}
		query = string(data)
	}
	if strings.TrimSpace(query) == "" {
		fmt.Fprintln(os.Stderr, "xq: no query given")
		os.Exit(2)
	}

	if *rewrites {
		report, err := db.RewriteCoverage(query)
		if err != nil {
			fatal(err)
		}
		fmt.Print(report)
		return
	}
	if *explain {
		ops, joins, err := db.PlanStats(query)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("plan: %d relational algebra operators, %d joins\n", ops, joins)
		tree, err := db.ExplainPlan(query)
		if err != nil {
			fatal(err)
		}
		fmt.Print(tree)
	}
	// the prepared path is the only query path: -var values bind the
	// query's external variables
	stmt, err := db.Prepare(query)
	if err != nil {
		fatal(err)
	}
	for _, b := range vars {
		stmt = stmt.Bind(b.name, b.val)
	}
	start := time.Now()
	res, err := stmt.Exec()
	if err != nil {
		fatal(err)
	}
	elapsed := time.Since(start)
	if *explain {
		// what the run found that the plan above did not promise: sorts
		// whose input was already ordered are orderings opt did not infer
		st := res.Stats()
		fmt.Printf("run: %d sort operators (%d full, %d refine) over %d rows; %d of them (%d rows) found their input already in order\n",
			st.FullSorts+st.RefineSort, st.FullSorts, st.RefineSort, st.SortedRows, st.SortsPresorted, st.RowsPresorted)
		// the two output-bound kernels: pairs out of the theta joins, and
		// the transient container (this is the statement's first execution,
		// the one that regrows; the next is sized by what this one built)
		fmt.Printf("run: %d theta joins emitted %d pairs; transient container %d rows, %d regrows\n",
			st.ThetaNL+st.ThetaIdx, st.ThetaPairs, st.TransientRows, st.TransientRegrows)
		return
	}
	if err := res.SerializeXML(os.Stdout); err != nil {
		fatal(err)
	}
	fmt.Println()
	if *timing {
		fmt.Fprintf(os.Stderr, "%d items in %v\n", res.Len(), elapsed)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "xq:", err)
	os.Exit(1)
}
