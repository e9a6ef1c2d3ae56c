// Package mxq is a from-scratch Go reproduction of MonetDB/XQuery
// (Boncz et al., SIGMOD 2006): a purely relational XQuery processor.
//
// XML documents are shredded into pre|size|level tables, XQuery is
// compiled by loop-lifting into relational algebra over iter|pos|item
// tables, a property-driven peephole optimizer rewrites the plans, and a
// columnar relational engine executes them. XPath location steps run as
// loop-lifted staircase joins.
//
// The serving API is statement-centric: Prepare compiles a query once
// into an immutable plan, and the resulting Stmt is executed any number
// of times — concurrently, from any number of goroutines — with
// per-execution values for the external variables declared in the
// query prolog. Query/QueryString are thin wrappers over the same
// compile path for one-shot use.
//
// Quick start:
//
//	db := mxq.Open()
//	if err := db.LoadDocument("auction.xml", file); err != nil { ... }
//
//	// compile once …
//	stmt, err := db.Prepare(`
//	    declare variable $minprice external;
//	    for $a in /site/closed_auctions/closed_auction
//	    where number($a/price) >= $minprice
//	    return $a/price/text()`)
//
//	// … execute many times, with different bindings, from any goroutine
//	res, err := stmt.Bind("minprice", mxq.Int(40)).Exec()
//	fmt.Println(res)
//
//	// one-shot queries share the compile path (and the plan cache)
//	res, err = db.Query(`count(//item)`)
package mxq

import (
	"context"
	"io"
	"strings"

	"mxq/internal/core"
	"mxq/internal/optcheck"
	"mxq/internal/ralg"
	"mxq/internal/sched"
	"mxq/internal/scj"
	"mxq/internal/xmark"
	"mxq/internal/xqt"
)

// DB is an XQuery engine instance holding its loaded documents. It is
// safe for concurrent use: any number of goroutines may call Query (and
// load further documents) on one DB; each query runs against a snapshot
// of the loaded documents with its own transient state. WithParallel
// additionally parallelizes the execution of each single query.
type DB struct {
	eng *core.Engine
}

// Option configures a DB at Open time.
type Option func(*core.Config)

// WithJoinRecognition toggles the rewriting of loop-lifted Cartesian
// products into theta-joins (paper §4.1–4.2; on by default). Disabling it
// reproduces the quadratic plans of Figure 13.
func WithJoinRecognition(on bool) Option {
	return func(c *core.Config) { c.Compiler.JoinRecognition = on }
}

// WithOrderOptimizer toggles the property-driven peephole optimizer
// (sort elimination, refine sorts, streaming rank, positional joins;
// paper §4.1; on by default). Disabling it reproduces Figure 14's
// non-order-preserving baseline.
func WithOrderOptimizer(on bool) Option {
	return func(c *core.Config) { c.OrderAware = on }
}

// WithLoopLiftedSteps selects loop-lifted (true) or per-iteration
// staircase joins (false) for child and descendant steps (Figure 12).
func WithLoopLiftedSteps(on bool) Option {
	return func(c *core.Config) {
		v := scj.LoopLifted
		if !on {
			v = scj.Iterative
		}
		c.Compiler.ChildVariant = v
		c.Compiler.DescVariant = v
	}
}

// WithNametestPushdown toggles pushing element name tests below location
// steps via the element-name index (paper §3.2; on by default).
func WithNametestPushdown(on bool) Option {
	return func(c *core.Config) { c.Compiler.NametestPushdown = on }
}

// WithParallel toggles intra-query parallel execution (off by default):
// staircase-join steps, row numbering, aggregation, selection, row-wise
// functions and hash joins partition their inputs across worker
// goroutines drawn from a slot pool: the DB's own (GOMAXPROCS slots,
// shared by all its executions) unless WithScheduler installs one.
// Results are byte-identical to serial execution.
func WithParallel(on bool) Option {
	return func(c *core.Config) { c.Parallel = on }
}

// WithWorkers bounds an execution's parallel workers, and without a
// scheduler the DB's slot pool, to n (implies WithParallel when n > 1);
// 0 restores the GOMAXPROCS default.
func WithWorkers(n int) Option {
	return func(c *core.Config) {
		c.Workers = n
		if n > 1 {
			c.Parallel = true
		}
	}
}

// WithParallelThreshold sets the minimum operator input size at which
// parallel execution kicks in (0 keeps the default; 1 forces every
// operator onto the chunked code paths — useful for testing).
func WithParallelThreshold(n int) Option {
	return func(c *core.Config) { c.ParallelThreshold = n }
}

// Scheduler is the global query scheduler: admission control over
// concurrent executions plus one bounded worker-slot pool they all
// share, so N in-flight queries never claim N×cores goroutines. Build
// one with NewScheduler and install it with WithScheduler; one
// scheduler may serve several DBs.
type Scheduler = sched.Scheduler

// SchedulerConfig sizes a Scheduler; zero fields pick the documented
// defaults (pool = GOMAXPROCS workers, 2×pool concurrent executions,
// 2×that queued admissions).
type SchedulerConfig = sched.Config

// SchedulerStats is a point-in-time snapshot of a scheduler's
// admission and pool counters.
type SchedulerStats = sched.Stats

// ErrQueueFull is returned by a scheduled execution when the
// scheduler's admission queue is full — the overload signal the
// serving layer maps to 503.
var ErrQueueFull = sched.ErrQueueFull

// ErrMemExhausted is returned by a scheduled execution when the
// scheduler's global memory pool (SchedulerConfig.MemTotal) cannot
// cover another per-query reservation — like ErrQueueFull, an overload
// signal, not a defect of the query.
var ErrMemExhausted = sched.ErrMemExhausted

// NewScheduler builds a global query scheduler.
func NewScheduler(cfg SchedulerConfig) *Scheduler { return sched.New(cfg) }

// WithScheduler runs the DB's executions under a global query
// scheduler: every execution admits itself (bounded concurrency with
// deadline-aware queueing) and draws its parallel workers from the
// scheduler's shared slot pool under a budget derived from the plan's
// cost hints. Combine with WithParallel; serial execution under a
// scheduler still gets admission control, just with budget 1. The
// scheduler is also the one place a per-query memory limit is set
// (SchedulerConfig.MemPerQuery/MemTotal): an over-budget execution
// aborts with a typed resource-exhausted QueryError (see
// IsResourceLimit), never a partial result. Without a scheduler,
// executions are unlimited.
func WithScheduler(s *Scheduler) Option {
	return func(c *core.Config) { c.Scheduler = s }
}

// Open returns a new engine instance with all paper optimizations
// enabled, modified by the given options.
func Open(opts ...Option) *DB {
	cfg := core.DefaultConfig()
	for _, o := range opts {
		o(&cfg)
	}
	return &DB{eng: core.New(cfg)}
}

// LoadDocument shreds and registers an XML document under the given name.
// The first document loaded becomes the context document for absolute
// paths; other documents are reachable via doc("name").
func (db *DB) LoadDocument(name string, r io.Reader) error {
	return db.eng.LoadXML(name, r)
}

// LoadDocumentString shreds a document given as a string.
func (db *DB) LoadDocumentString(name, xml string) error {
	return db.eng.LoadXML(name, strings.NewReader(xml))
}

// LoadXMark generates and registers a synthetic XMark auction document at
// the given scale factor (1.0 ≈ the benchmark's 110 MB document) without
// going through XML text.
func (db *DB) LoadXMark(name string, factor float64, seed int64) {
	db.eng.LoadContainer(name, xmark.NewStoreContainer(name, factor, seed))
}

// Doc names one document of a collection corpus.
type Doc struct {
	Name string
	R    io.Reader
}

// DocString builds a Doc from XML text.
func DocString(name, xml string) Doc { return Doc{Name: name, R: strings.NewReader(xml)} }

// LoadCollection shreds the given documents into a sharded collection:
// the corpus is partitioned across `shards` containers by a hash of each
// document name, and shard containers load concurrently. The collection
// is queried with collection(name); each shard's documents are evaluated
// in parallel under WithParallel. Collection documents are not
// individually addressable via doc().
func (db *DB) LoadCollection(name string, shards int, docs ...Doc) error {
	cds := make([]core.CollectionDoc, len(docs))
	for i, d := range docs {
		cds[i] = core.CollectionDoc{Name: d.Name, R: d.R}
	}
	return db.eng.LoadCollection(name, shards, cds)
}

// AddToCollection shreds one more document into an existing collection.
// The affected shard is updated copy-on-write, so in-flight queries keep
// seeing the collection state their snapshot captured; the updated
// shard's documents move to the end of the collection's document order.
// Shredding happens outside the engine lock (queries are never stalled
// behind the parse); if another goroutine updates the same collection
// concurrently, the add fails with a "changed concurrently" error and
// should be retried with a fresh Doc reader. Each add costs O(shard)
// time; the shard version it supersedes is reclaimed once the last
// Result or in-flight query from before the add is gone — bulk-load
// large corpora with LoadCollection. Nodes of the superseded shard that
// were taken from an earlier Result can no longer be bound into new
// executions (see Items): they raise XPDY0002.
func (db *DB) AddToCollection(coll string, doc Doc) error {
	return db.eng.AddToCollection(coll, doc.Name, doc.R)
}

// CollectionDocs returns the document names of a loaded collection in
// collection document order — the order collection(name) enumerates the
// documents.
func (db *DB) CollectionDocs(name string) ([]string, bool) {
	return db.eng.CollectionDocs(name)
}

// LoadXMarkCollection generates ndocs distinct XMark documents (seeds
// seed..seed+ndocs-1) into a sharded collection without going through XML
// text, and returns the per-document generator seeds keyed by document
// name (for mirroring oracles).
func (db *DB) LoadXMarkCollection(name string, ndocs, shards int, factor float64, seed int64) map[string]int64 {
	sp, seeds := xmark.BuildShardedCollection(name, ndocs, shards, factor, seed)
	db.eng.RegisterCollection(sp)
	return seeds
}

// Result is a query result sequence.
type Result struct{ r *core.Result }

// Query evaluates an XQuery expression: it prepares the query (one
// compile per distinct query text, via the plan cache) and executes it
// without bindings, so a query whose prolog declares a required
// external variable fails with XPDY0002 — use Prepare and Bind for
// parameterized queries. Node items in the result stay valid for the
// lifetime of the Result: each execution pins its own snapshot of the
// loaded documents.
func (db *DB) Query(q string) (*Result, error) {
	r, err := db.eng.Query(q)
	if err != nil {
		return nil, err
	}
	return &Result{r: r}, nil
}

// QueryContext is Query under a context: a deadline or cancellation
// that fires mid-execution aborts the query at the executor's next
// checkpoint and returns ctx.Err(), never a partial result.
func (db *DB) QueryContext(ctx context.Context, q string) (*Result, error) {
	r, err := db.eng.QueryContext(ctx, q)
	if err != nil {
		return nil, err
	}
	return &Result{r: r}, nil
}

// QueryString evaluates q and returns the serialized result.
func (db *DB) QueryString(q string) (string, error) {
	return db.eng.QueryString(q)
}

// Len returns the number of items in the result sequence.
func (r *Result) Len() int { return len(r.r.Items) }

// SerializeXML writes the result as XML text.
func (r *Result) SerializeXML(w io.Writer) error { return r.r.SerializeXML(w) }

// String renders the result as XML text.
func (r *Result) String() string { return r.r.String() }

// Stats returns the executor counters of the execution that produced
// the result.
func (r *Result) Stats() ralg.ExecStats { return r.r.Stats }

// Items exposes the raw item sequence (nodes as (container, pre) refs).
func (r *Result) Items() []xqt.Item { return r.r.Items }

// PlanStats returns the number of relational algebra operators and joins
// in the compiled plan of q (the paper's §4.1 plan statistics).
func (db *DB) PlanStats(q string) (ops, joins int, err error) {
	return db.eng.PlanStats(q)
}

// ExplainPlan compiles q and renders the optimized plan tree, each
// operator annotated with its statically inferred output schema and
// column properties (the planck analysis `xq -explain` prints).
func (db *DB) ExplainPlan(q string) (string, error) {
	return db.eng.ExplainPlan(q)
}

// RewriteCoverage compiles q afresh and reports which registered
// optimizer rules fired on it, in registry order (the report `xq
// -rewrite-coverage` prints). Rules that never fired are marked "!".
func (db *DB) RewriteCoverage(q string) (string, error) {
	steps, err := db.eng.RewriteSteps(q)
	if err != nil {
		return "", err
	}
	cov := optcheck.NewCoverage()
	cov.Add(steps)
	return cov.Report(), nil
}

// Engine exposes the underlying engine for benchmarks and tools.
func (db *DB) Engine() *core.Engine { return db.eng }
