package mxq

import (
	"context"

	"mxq/internal/core"
	"mxq/internal/ralg"
	"mxq/internal/xqt"
)

// Bindings is the low-level binding environment of the engine API
// (core.Prepared.Execute); Stmt.Bind with typed Values is the
// high-level surface. Exposed for harnesses (benchmarks, fuzzers)
// driving core.Engine directly.
type Bindings = core.Bindings

// Value is a binding value for an external query variable: a typed
// XQuery sequence built with the Int/Float/String/Bool/Sequence
// constructors (or Items, for node sequences taken from an earlier
// Result). Values are immutable.
type Value struct {
	vec ralg.ItemVec
}

// Int builds an xs:integer singleton value.
func Int(v int64) Value { return Value{vec: ralg.BindInts(v)} }

// Float builds an xs:double singleton value.
func Float(v float64) Value { return Value{vec: ralg.BindFloats(v)} }

// String builds an xs:string singleton value.
func String(s string) Value { return Value{vec: ralg.BindStrings(s)} }

// Bool builds an xs:boolean singleton value.
func Bool(b bool) Value { return Value{vec: ralg.BindBools(b)} }

// Ints builds an xs:integer sequence value on the typed fast path (no
// per-item boxing; the input slice is copied, so callers may reuse it).
func Ints(vs ...int64) Value {
	return Value{vec: ralg.BindInts(vs...)}
}

// Floats builds an xs:double sequence value on the typed fast path
// (the input slice is copied).
func Floats(vs ...float64) Value {
	return Value{vec: ralg.BindFloats(vs...)}
}

// Strings builds an xs:string sequence value on the typed fast path
// (the input slice is copied).
func Strings(vs ...string) Value {
	return Value{vec: ralg.BindStrings(vs...)}
}

// Items builds a value from raw items — e.g. a node sequence obtained
// from a previous Result on the same DB. Node items are only
// meaningful to the DB whose documents they reference, and only while
// it still holds the document version they came from: nodes of loaded
// documents and of collection shards stay bindable until an
// AddToCollection supersedes their shard, after which executing with
// them fails with a typed XPDY0002 (the Result they came from keeps
// serializing its own version; run the query again for current nodes).
// Nodes a query constructed belong to that one Result and cannot be
// bound.
func Items(items ...xqt.Item) Value {
	return Value{vec: ralg.BindItems(items...)}
}

// Sequence concatenates values into one sequence value (XQuery
// sequences do not nest).
func Sequence(vs ...Value) Value {
	switch len(vs) {
	case 0:
		return Value{}
	case 1:
		return vs[0]
	}
	var out ralg.ItemVec
	for i := range vs {
		v := vs[i].vec
		out.AppendVec(&v)
	}
	return Value{vec: out}
}

// Len returns the number of items in the value.
func (v Value) Len() int { return v.vec.Len() }

// VarInfo describes one external variable of a prepared statement:
// its name, whether a binding is Required (no default — executing
// unbound raises XPDY0002), and whether the default implies a
// Singleton (binding more than one item raises XPTY0004).
type VarInfo = core.VarInfo

// Stmt is a prepared statement: the query is parsed, compiled and
// optimized once, and the compiled plan is shared by every execution.
// External variables ("declare variable $x external;" in the query
// prolog) are supplied per execution with Bind.
//
// A Stmt is immutable: Bind returns a derived statement sharing the
// same compiled plan, leaving the receiver unchanged. One Stmt may
// therefore be executed by any number of goroutines concurrently, each
// chaining its own Bind calls — every Exec takes a fresh snapshot of
// the DB's loaded documents:
//
//	stmt, _ := db.Prepare(`declare variable $min external;
//	    for $i in /site/item where number($i/price) > $min return $i`)
//	go stmt.Bind("min", mxq.Int(10)).Exec()
//	go stmt.Bind("min", mxq.Int(99)).Exec()
type Stmt struct {
	p     *core.Prepared
	binds core.Bindings
}

// Prepare parses, compiles and optimizes a query into a reusable
// statement. The compile cost is paid once; Exec only pays binding
// materialization and plan execution. Repeated Prepare calls for the
// same query text hit the engine's plan cache.
func (db *DB) Prepare(q string) (*Stmt, error) {
	p, err := db.eng.Prepare(q)
	if err != nil {
		return nil, err
	}
	return &Stmt{p: p}, nil
}

// Bind returns a derived statement with the external variable name
// bound to v (replacing any previous binding of that name). The
// receiver is unchanged, so concurrent binders never interfere.
// Binding names are validated at Exec time against the declared
// external variables.
func (s *Stmt) Bind(name string, v Value) *Stmt {
	nb := make(core.Bindings, len(s.binds)+1)
	for k, vec := range s.binds {
		nb[k] = vec
	}
	nb[name] = v.vec
	return &Stmt{p: s.p, binds: nb}
}

// Exec runs the statement under its accumulated bindings and returns
// the result. Unbound externals fall back to their declared defaults;
// a required external without a binding raises XPDY0002.
func (s *Stmt) Exec() (*Result, error) {
	return s.ExecContext(context.Background())
}

// ExecContext is Exec under a context: a deadline or cancellation that
// fires mid-execution makes the executor abandon its work at the next
// operator checkpoint and return ctx.Err() — never a partial result.
// All parallel workers of the execution have drained by the time it
// returns.
func (s *Stmt) ExecContext(ctx context.Context) (*Result, error) {
	r, err := s.p.ExecuteContext(ctx, s.binds)
	if err != nil {
		return nil, err
	}
	return &Result{r: r}, nil
}

// ExecString runs the statement and serializes the result.
func (s *Stmt) ExecString() (string, error) {
	r, err := s.Exec()
	if err != nil {
		return "", err
	}
	return r.String(), nil
}

// ExecStringContext runs the statement under a context and serializes
// the result.
func (s *Stmt) ExecStringContext(ctx context.Context) (string, error) {
	r, err := s.ExecContext(ctx)
	if err != nil {
		return "", err
	}
	return r.String(), nil
}

// Vars returns the external variables the statement accepts, in
// declaration order — the introspection surface for generic callers
// (CLI drivers, schedulers) that bind by name.
func (s *Stmt) Vars() []VarInfo { return s.p.Vars() }

// Query returns the statement's query text.
func (s *Stmt) Query() string { return s.p.Query() }
