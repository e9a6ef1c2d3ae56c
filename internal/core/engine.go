// Package core assembles the full MonetDB/XQuery reproduction: the
// storage pool, the XQuery parser, the loop-lifting compiler, the
// peephole optimizer and the columnar executor, behind one Engine type.
// It corresponds to the paper's system picture in §5: the Pathfinder
// compiler module on top of the MonetDB kernel with its XQuery runtime
// module (loop-lifted staircase join and XML serialization).
//
// # Concurrency model
//
// An Engine is safe for concurrent use. Loaded documents are immutable;
// the registry of documents (the store.Pool) is guarded by an RWMutex,
// and every execution takes a cheap pool snapshot plus a fresh
// transient container, so concurrent queries — and concurrent document
// loads — never share mutable state. Compiled queries are immutable
// after optimization and cached in a lock-protected LRU keyed by the
// query text (the cache is per engine, and an engine's Config is fixed
// at New); the context document and the external variable bindings of
// a prepared query are execution-time plan inputs, so any number of
// in-flight executions — of one Prepared handle or of independent
// queries — may share the same cached plan. Result node items stay
// valid for the lifetime of the Result (they pin the snapshot), even
// across later loads and queries. One execution runs on the goroutine
// that called it.
package core

import (
	"context"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"sync"

	"mxq/internal/opt"
	"mxq/internal/optcheck"
	"mxq/internal/planck"
	"mxq/internal/ralg"
	"mxq/internal/sched"
	"mxq/internal/store"
	"mxq/internal/xqc"
	"mxq/internal/xqp"
	"mxq/internal/xqt"
)

// Config selects the engine's optimization strategies; the zero value
// disables every optimization (the ablation baselines of Figures
// 12–14), and DefaultConfig enables the full system. Resource limits —
// admission, memory — are not here: they live in the Scheduler's
// sched.Config.
type Config struct {
	Compiler xqc.Options
	// OrderAware runs the property-driven peephole optimizer (§4.1):
	// sort elimination, refine sorts, streaming rank and positional
	// joins (Figure 14's "order preserving").
	OrderAware bool
	// Scheduler, when set, is the global query scheduler the engine's
	// executions run under: every ExecuteContext admits itself (bounded
	// concurrency, deadline-aware queueing) and runs under the memory
	// budget of its grant (sched.Config.MemPerQuery). One scheduler may
	// be shared by several engines. Without one, executions run
	// immediately and with no memory budget.
	Scheduler *sched.Scheduler
}

// DefaultConfig is the full-strength engine configuration.
func DefaultConfig() Config {
	return Config{Compiler: xqc.DefaultOptions(), OrderAware: true}
}

// Engine is one XQuery engine instance with its loaded documents. It is
// safe for concurrent use; see the package documentation for the
// concurrency model.
type Engine struct {
	cfg Config

	mu         sync.RWMutex // guards pool registration and defaultDoc
	pool       *store.Pool
	defaultDoc string

	cache *planCache

	// verify (MXQ_VERIFY_PLANS) runs the static plan verifier
	// (internal/planck) over every compiled plan — the main plan and each
	// prolog parameter initializer, before and after optimization.
	verify bool
	// checkRewrites (MXQ_CHECK_REWRITES) replays every optimizer rewrite's
	// witness through the translation validator (internal/optcheck) and
	// fails compilation naming an unsound rule; off, the tracing hook
	// costs one nil check per rewrite.
	checkRewrites bool
}

// New returns an engine with the given configuration. The two plan
// checks are switched by the environment alone, read once here (see
// envSwitch): `make verify`, CI and the tests check every compiled
// query without threading a knob through each test helper.
func New(cfg Config) *Engine {
	return &Engine{
		cfg:           cfg,
		pool:          store.NewPool(),
		cache:         newPlanCache(),
		verify:        envSwitch("MXQ_VERIFY_PLANS"),
		checkRewrites: envSwitch("MXQ_CHECK_REWRITES"),
	}
}

// envSwitch reads an on/off environment variable: unset, or a value
// strconv.ParseBool reads as false ("0", "f", "false", "FALSE", …), is
// off; "1", "true" and every value ParseBool rejects are on, so a typo
// cannot silently drop a safety check.
func envSwitch(name string) bool {
	v := os.Getenv(name)
	if v == "" {
		return false
	}
	on, err := strconv.ParseBool(v)
	return on || err != nil
}

// Pool exposes the container pool (used by benchmarks and tests).
// Callers must not register containers directly while queries are in
// flight; use LoadContainer.
func (e *Engine) Pool() *store.Pool { return e.pool }

// Scheduler returns the global query scheduler the engine runs under,
// or nil when executions are unscheduled.
func (e *Engine) Scheduler() *sched.Scheduler { return e.cfg.Scheduler }

// AdmissionCost is the scheduler cost of an execution that starts now:
// the structural rows of the current snapshot. It is known before the
// statement compiles, so the serving layer admits with it too.
func (e *Engine) AdmissionCost() sched.Cost {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return sched.Cost{Rows: e.pool.Rows()}
}

// LoadXML shreds and registers a document; the first document loaded
// becomes the context document of absolute paths. Loading is safe while
// queries run: in-flight queries keep seeing their snapshot of the
// loaded documents.
func (e *Engine) LoadXML(name string, r io.Reader) error {
	c, err := store.Shred(name, r, false)
	if err != nil {
		return err
	}
	e.LoadContainer(name, c)
	return nil
}

// LoadContainer registers a pre-shredded document.
func (e *Engine) LoadContainer(name string, c *store.Container) {
	c.Name = name
	e.mu.Lock()
	e.pool.Register(c)
	c.BuildIndexes()
	if e.defaultDoc == "" {
		e.defaultDoc = name
	}
	e.mu.Unlock()
}

// CollectionDoc names one document of a collection corpus and the reader
// supplying its XML text.
type CollectionDoc struct {
	Name string
	R    io.Reader
}

// LoadCollection shreds the given documents into a sharded collection
// registered under name: the corpus is partitioned across `shards`
// containers by a hash of each document name, and the shard containers
// are built concurrently (loading parallelizes across shards). The
// collection is reachable via collection(name); its documents are not
// individually addressable via doc(). Like document loads, registering a
// collection is safe while queries run.
func (e *Engine) LoadCollection(name string, shards int, docs []CollectionDoc) error {
	names := make([]string, len(docs))
	readers := make(map[string]io.Reader, len(docs))
	for i, d := range docs {
		names[i] = d.Name
		readers[d.Name] = d.R
	}
	sp, err := store.BuildSharded(name, shards, names, func(d string, b *store.Builder) error {
		return store.ShredInto(b, d, readers[d], false)
	})
	if err != nil {
		return err
	}
	e.RegisterCollection(sp)
	return nil
}

// RegisterCollection registers a pre-built sharded collection (used by
// the XMark generator path, which emits builder events directly). The
// element-name indexes are built before the registry lock is taken.
func (e *Engine) RegisterCollection(sp *store.ShardedPool) {
	sp.BuildIndexes()
	e.mu.Lock()
	e.pool.RegisterCollection(sp)
	e.mu.Unlock()
}

// AddToCollection shreds one more document into an existing collection.
// The affected shard is updated copy-on-write: in-flight queries keep
// seeing the collection state their snapshot captured, exactly as
// document loads behave. The updated shard re-registers under a fresh
// container id, which moves its documents to the end of the collection's
// document order. Each add costs O(shard) time for the copy; the version
// it supersedes leaves the engine's pool and is reclaimed once the last
// snapshot taken before the add — an in-flight execution, a Result
// still held — is gone; node items of that version bound into a later
// execution fail its binding check with XPDY0002. Grow large corpora with LoadCollection bulk
// loads and reserve AddToCollection for incremental documents.
func (e *Engine) AddToCollection(coll, doc string, r io.Reader) error {
	// The shard copy and the XML shred run outside the engine lock so
	// concurrent queries are never stalled behind a parse (LoadXML makes
	// the same choice). Registration re-checks the collection under the
	// write lock; losing a race against another writer means redoing the
	// copy-on-write build against the winner's version — the reader r is
	// consumed, so retrying the shred itself is not possible, and a
	// concurrent add of the SAME shard changes the base we must copy.
	e.mu.RLock()
	sp, ok := e.pool.Collection(coll)
	e.mu.RUnlock()
	if !ok {
		return fmt.Errorf("core: collection %q not loaded", coll)
	}
	nsp, err := sp.WithDoc(doc, func(b *store.Builder) error {
		return store.ShredInto(b, doc, r, false)
	})
	if err != nil {
		return err
	}
	nsp.BuildIndexes() // index the fresh shard copy outside the lock too
	e.mu.Lock()
	defer e.mu.Unlock()
	if cur, _ := e.pool.Collection(coll); cur != sp {
		return fmt.Errorf("core: collection %q changed concurrently while adding %q; retry the add", coll, doc)
	}
	e.pool.RegisterCollection(nsp)
	return nil
}

// CollectionDocs returns the document names of a registered collection in
// collection document order (the order collection() enumerates them).
func (e *Engine) CollectionDocs(name string) ([]string, bool) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	sp, ok := e.pool.Collection(name)
	if !ok {
		return nil, false
	}
	return sp.DocNames(), true
}

// SetContextDocument selects the document absolute paths refer to.
func (e *Engine) SetContextDocument(name string) {
	e.mu.Lock()
	e.defaultDoc = name
	e.mu.Unlock()
}

// Result is a query result: the item sequence, the executor counters of
// the execution that produced it, and access to the containers the node
// items live in.
type Result struct {
	Items []xqt.Item
	Stats ralg.ExecStats
	pool  *store.Pool
}

// Compile parses and compiles a query to its physical plan (optimized
// according to the engine configuration) without executing it.
func (e *Engine) Compile(q string) (ralg.Plan, error) {
	cq, err := e.compile(q)
	if err != nil {
		return nil, err
	}
	return cq.root(), nil
}

// compile is the single compile path of the engine: Prepare, Query and
// QueryString all go through it. The result — main plan plus the
// prolog parameter plans — is independent of the context document and
// of any bindings, so it is cached per query text.
func (e *Engine) compile(q string) (*compiled, error) {
	if p, ok := e.cache.get(q); ok {
		return p, nil
	}
	cq, err := e.parseCompile(q)
	if err != nil {
		return nil, err
	}
	st := newCompiled(cq)
	if err := e.verifyCompiled(st); err != nil {
		return nil, fmt.Errorf("core: compiler emitted an invalid plan for %q: %w", q, err)
	}
	if e.cfg.OrderAware {
		if err := e.optimizeCompiled(st, q); err != nil {
			return nil, err
		}
	}
	// the main plan's root is only serialized: decide which constructors
	// build by reference, on the final schedule, and check the decision
	st.plan.MarkByRef()
	if err := e.verifyCompiled(st); err != nil {
		return nil, fmt.Errorf("core: the optimized, by-reference-marked plan for %q is invalid: %w", q, err)
	}
	e.cache.put(q, st)
	return st, nil
}

// parseCompile is the front half of compile: query text to unoptimized
// plans.
func (e *Engine) parseCompile(q string) (*xqc.Compiled, error) {
	m, err := xqp.Parse(q)
	if err != nil {
		return nil, err
	}
	return xqc.Compile(m, e.cfg.Compiler)
}

// each calls f on every plan of st in the order the executor runs them:
// every parameter initializer in declaration order, then the main plan.
// f gets the slot of the plan's schedule, the name of the parameter it
// initializes ("" for the main plan) and the verifier configuration
// naming the parameters visible to it: those declared before it, all of
// them for the main plan, whose root alone is only serialized. The
// first error ends the walk.
func (st *compiled) each(f func(s *ralg.Schedule, param string, cfg planck.Config) error) error {
	cfg := planck.Config{Params: map[string]bool{}, RequireItem: true}
	for i, p := range st.params {
		if p.Init != nil {
			if err := f(&st.inits[i], p.Name, cfg); err != nil {
				return err
			}
		}
		cfg.Params[p.Name] = true
	}
	cfg.Serialized = true
	return f(&st.plan, "", cfg)
}

// optimizeCompiled runs the peephole optimizer over every plan of st.
// With rewrite checking on, each optimization collects its rewrite
// witnesses and the translation validator replays them over synthesized
// inputs — an unsound rewrite fails the compilation, attributed to the
// plan it fired in (parameter initializers are covered exactly like the
// main plan).
func (e *Engine) optimizeCompiled(st *compiled, q string) error {
	return st.each(func(s *ralg.Schedule, param string, _ planck.Config) error {
		if !e.checkRewrites {
			*s = opt.OptimizeSchedule(*s, nil)
			return nil
		}
		var steps []opt.RewriteStep
		*s = opt.OptimizeSchedule(*s, func(s opt.RewriteStep) { steps = append(steps, s) })
		err := optcheck.ValidateSteps(steps, optcheck.DefaultOptions())
		switch {
		case err == nil:
			return nil
		case param != "":
			return fmt.Errorf("core: unsound rewrite in the initializer of $%s for %q: %w", param, q, err)
		}
		return fmt.Errorf("core: unsound rewrite for %q: %w", q, err)
	})
}

// RewriteSteps compiles q afresh (bypassing the plan cache, which only
// holds optimized plans) and returns the optimizer's rewrite witnesses
// for every parameter initializer and the main plan, in firing order.
// Nil without error when the engine is not order-aware.
func (e *Engine) RewriteSteps(q string) ([]opt.RewriteStep, error) {
	if !e.cfg.OrderAware {
		return nil, nil
	}
	cq, err := e.parseCompile(q)
	if err != nil {
		return nil, err
	}
	var steps []opt.RewriteStep
	err = newCompiled(cq).each(func(s *ralg.Schedule, _ string, _ planck.Config) error {
		*s = opt.OptimizeSchedule(*s, func(s opt.RewriteStep) { steps = append(steps, s) })
		return nil
	})
	return steps, err
}

// verifyCompiled runs the static plan verifier over every schedule of
// st when plan verification is on.
func (e *Engine) verifyCompiled(st *compiled) error {
	if !e.verify {
		return nil
	}
	return st.each(func(s *ralg.Schedule, param string, cfg planck.Config) error {
		_, err := planck.Analyze(*s, cfg)
		if err != nil && param != "" {
			return fmt.Errorf("initializer of $%s: %w", param, err)
		}
		return err
	})
}

// ExplainPlan compiles q (hitting the plan cache like any compile) and
// renders the optimized plan tree annotated with the statically
// inferred schema and column properties of every operator.
func (e *Engine) ExplainPlan(q string) (string, error) {
	cq, err := e.compile(q)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	err = cq.each(func(s *ralg.Schedule, param string, cfg planck.Config) error {
		tree, err := planck.Explain(*s, cfg)
		if param != "" {
			fmt.Fprintf(&b, "$%s :=\n", param)
		}
		b.WriteString(tree)
		return err
	})
	if err != nil {
		return "", err
	}
	return b.String(), nil
}

// Query evaluates q and returns its result: it prepares the query
// (hitting the plan cache on repeats) and executes it without
// bindings. Node items in the result stay valid for the lifetime of
// the Result: constructed nodes live in a per-query transient
// container owned by the result's pool snapshot.
func (e *Engine) Query(q string) (*Result, error) {
	return e.QueryContext(context.Background(), q)
}

// QueryContext is Query under a context: compilation happens up front,
// then execution runs with the cancellation behavior of
// Prepared.ExecuteContext.
func (e *Engine) QueryContext(ctx context.Context, q string) (*Result, error) {
	p, err := e.Prepare(q)
	if err != nil {
		return nil, err
	}
	return p.ExecuteContext(ctx, nil)
}

// CacheStats reports plan-cache effectiveness: hits and misses since
// the engine was created, and the current number of cached plans.
func (e *Engine) CacheStats() (hits, misses int64, size int) {
	return e.cache.hits.Load(), e.cache.misses.Load(), e.cache.len()
}

// PlanStats returns the operator and join counts of a compiled query
// (the §4.1 plan statistics).
func (e *Engine) PlanStats(q string) (ops, joins int, err error) {
	cq, err := e.compile(q)
	if err == nil {
		ops, joins = cq.plan.CountOps()
	}
	return ops, joins, err
}

// SerializeXML writes the result sequence as XML text: nodes are
// serialized, an attribute as name="value" with the value escaped as
// inside an element, adjacent atoms are separated by single spaces. One
// buffering serializer, its buffer reused from the last serialization,
// carries the whole sequence to w; a write error ends the walk and is
// returned.
func (r *Result) SerializeXML(w io.Writer) error {
	s := store.NewSerializer(w)
	prevAtom := false
	for _, it := range r.Items {
		if s.Err() != nil {
			break
		}
		switch it.K {
		case xqt.KNode:
			s.Node(r.pool.Get(it.Cont), int32(it.I))
			prevAtom = false
		case xqt.KAttr:
			c := r.pool.Get(it.Cont)
			s.Attr(c.Names.Name(c.AttrName[it.I]), c.AttrVal[it.I])
			prevAtom = false
		default:
			if prevAtom {
				s.String(" ")
			}
			s.String(it.AsString())
			prevAtom = true
		}
	}
	return s.Close()
}

// String renders the result as serialized XML text.
func (r *Result) String() string {
	var sb strings.Builder
	if err := r.SerializeXML(&sb); err != nil {
		return "serialize error: " + err.Error()
	}
	return sb.String()
}

// QueryString evaluates q and serializes the result.
func (e *Engine) QueryString(q string) (string, error) {
	r, err := e.Query(q)
	if err != nil {
		return "", err
	}
	return r.String(), nil
}
