package core

import (
	"context"
	"fmt"

	"mxq/internal/ralg"
	"mxq/internal/sched"
	"mxq/internal/store"
	"mxq/internal/xqerr"
	"mxq/internal/xqt"
)

// Bindings maps external variable names (declared in the query prolog
// with "declare variable $name external") to their bound sequences,
// materialized as typed item vectors via the ralg.Bind* constructors.
type Bindings = ralg.Bindings

// Prepared is a prepared query: the parse/compile/optimize cost is paid
// once (Prepare) and amortized across executions (Execute). A Prepared
// handle is immutable and safe for concurrent use — any number of
// goroutines may Execute it simultaneously with different bindings;
// each execution takes a fresh snapshot of the engine's loaded
// documents (and of its current context document) plus its own
// transient container, exactly like Engine.Query.
type Prepared struct {
	eng   *Engine
	query string
	cq    *compiled
}

// Prepare parses, compiles and optimizes q into a reusable statement
// handle. Repeated Prepare calls for the same query text hit the plan
// cache, so handles are cheap to re-derive; holding one pins the
// compiled plan independent of cache eviction.
func (e *Engine) Prepare(q string) (*Prepared, error) {
	cq, err := e.compile(q)
	if err != nil {
		return nil, err
	}
	return &Prepared{eng: e, query: q, cq: cq}, nil
}

// Query returns the query text the statement was prepared from.
func (p *Prepared) Query() string { return p.query }

// Plan exposes the root of the compiled main plan, the one Execute runs
// (benchmarks, plan statistics).
func (p *Prepared) Plan() ralg.Plan { return p.cq.root() }

// VarInfo describes one external variable of a prepared query, in
// declaration order.
type VarInfo struct {
	Name string
	// Required is true for "declare variable $x external;" without a
	// default: executing without a binding for it raises XPDY0002.
	Required bool
	// Singleton is true when the declaration's default expression is
	// statically a single item: binding more than one item raises
	// XPTY0004.
	Singleton bool
}

// Vars returns the external variables the statement accepts, in
// declaration order.
func (p *Prepared) Vars() []VarInfo {
	var out []VarInfo
	for _, prm := range p.cq.params {
		if !prm.External {
			continue
		}
		out = append(out, VarInfo{Name: prm.Name, Required: prm.Init == nil, Singleton: prm.Singleton})
	}
	return out
}

// Execute runs the prepared plan under the given bindings and returns
// the result. Bindings are validated against the declared external
// variables: binding an undeclared name is XPST0008, leaving a
// required external unbound is XPDY0002, and binding a multi-item
// sequence where the declaration's default implies a single item is
// XPTY0004. Unbound externals with defaults — and all non-external
// prolog variables — are evaluated per execution, in declaration
// order, against the same document snapshot as the main plan.
func (p *Prepared) Execute(b Bindings) (*Result, error) {
	return p.ExecuteContext(context.Background(), b)
}

// ExecuteContext is Execute under a context: when ctx carries a
// deadline or is cancelled mid-execution, the executor's operators
// abandon their work at the next checkpoint and the call returns
// ctx.Err() — never a partial result. A nil ctx behaves like
// context.Background().
//
// Under an engine scheduler (Config.Scheduler) the execution first
// admits itself — waiting, deadline-aware, for an execution slot and
// failing with sched.ErrQueueFull when the admission queue is full —
// unless ctx already carries a grant (sched.WithGrant), in which case
// that grant's memory budget governs and no second admission happens.
func (p *Prepared) ExecuteContext(ctx context.Context, b Bindings) (res *Result, err error) {
	// The executor trusts its plans: a malformed plan (or an executor
	// bug) panics rather than corrupting results. Contain such panics
	// here — the execution boundary every API path funnels through — so
	// one bad query cannot take down a server embedding the engine.
	defer func() {
		if r := recover(); r != nil {
			res = nil
			err = fmt.Errorf("mxq: internal error evaluating query %q: %v", p.query, r)
		}
	}()
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	for name := range b {
		if !p.declaresExternal(name) {
			return nil, xqerr.Newf("XPST0008", "no external variable $%s declared", name)
		}
	}
	e := p.eng
	grant := sched.GrantFrom(ctx)
	if grant == nil && e.cfg.Scheduler != nil {
		g, err := e.cfg.Scheduler.Admit(ctx, e.AdmissionCost())
		if err != nil {
			return nil, err
		}
		defer g.Release()
		grant = g
	}
	// The snapshot is taken after admission: a queued execution sees the
	// document state as of when it actually starts running.
	e.mu.RLock()
	doc := e.defaultDoc
	qp := e.pool.Snapshot()
	e.mu.RUnlock()
	transient := store.NewContainer("")
	qp.Register(transient)
	ex := ralg.NewExec(qp, transient)
	// sized once, by the first constructor that builds anything: what the
	// statement's last successful execution built
	ex.SizeHint = int(p.cq.transientRows.Load())
	// The executor's column memory goes back for reuse on every exit
	// path — result, error, cancellation, budget abort, contained panic.
	// Nothing below may hand out a table: the result is copied off first.
	defer ex.Release()
	ex.ContextDoc = doc
	ex.Ctx = ctx
	// The memory budget is the grant's: an unscheduled execution is
	// unlimited.
	var limit int64
	if grant != nil {
		limit = grant.MemLimit()
	}
	if mem := ralg.NewMemBudget(limit); mem != nil {
		// The pinned snapshot is the execution's first materialized
		// state: charge one byte per structural row up front, so a budget
		// smaller than the context documents fails with the typed error
		// before the first operator runs.
		mem.Charge(qp.Rows())
		if err := mem.Err(); err != nil {
			return nil, err
		}
		ex.Mem = mem
	}
	env := make(ralg.Bindings, len(p.cq.params))
	ex.Bindings = env
	for i := range p.cq.params {
		prm := &p.cq.params[i]
		if prm.External {
			if v, ok := b[prm.Name]; ok {
				if prm.Singleton && v.Len() > 1 {
					return nil, xqerr.Newf("XPTY0004", "external variable $%s expects a single item (its default is one) but is bound to %d items", prm.Name, v.Len())
				}
				if c, stale := unheldNode(qp, transient.ID, &v); stale {
					return nil, xqerr.Newf("XPDY0002", "external variable $%s is bound to a node of container %d, which this execution's snapshot does not hold (a collection shard that an AddToCollection superseded, or a node another Result constructed): query for the node again", prm.Name, c)
				}
				env[prm.Name] = v
				continue
			}
			if prm.Init == nil {
				return nil, xqerr.Newf("XPDY0002", "no value bound for external variable $%s", prm.Name)
			}
		}
		tab, err := ex.RunSchedule(p.cq.inits[i])
		if err != nil {
			return nil, err
		}
		env[prm.Name] = *tab.Col("item")
	}
	tab, err := ex.RunSchedule(p.cq.plan)
	if err != nil {
		return nil, err
	}
	p.cq.transientRows.Store(int64(transient.Len()))
	// Items materializes a fresh polymorphic slice off the typed-vector
	// column, so the result does not pin the executor's tables.
	return &Result{Items: tab.Items("item"), Stats: ex.Stats, pool: qp}, nil
}

// unheldNode finds a bound node item the snapshot cannot resolve. A node
// item is a (container id, row) pair: the id of a shard version that an
// AddToCollection superseded after the node was obtained names an empty
// slot in every later snapshot, an id from another engine may name none,
// and the id of this execution's own (still empty) transient container
// can only be a node some earlier Result constructed. Each must be an
// error of the binding, not a nil dereference or an index out of range
// somewhere inside the plan.
func unheldNode(qp *store.Pool, own int32, v *ralg.ItemVec) (int32, bool) {
	for i, c := range v.Cont {
		if k := v.KindAt(i); (k == xqt.KNode || k == xqt.KAttr) && (c == own || !qp.Holds(c)) {
			return c, true
		}
	}
	return 0, false
}

// ExecuteString runs the prepared plan under the given bindings and
// serializes the result.
func (p *Prepared) ExecuteString(b Bindings) (string, error) {
	r, err := p.Execute(b)
	if err != nil {
		return "", err
	}
	return r.String(), nil
}

func (p *Prepared) declaresExternal(name string) bool {
	for _, prm := range p.cq.params {
		if prm.External && prm.Name == name {
			return true
		}
	}
	return false
}
