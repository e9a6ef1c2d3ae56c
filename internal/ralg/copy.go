package ralg

import (
	"reflect"
	"sync"
)

// Copier deep-copies plan DAGs. Copies made through one Copier share a
// memo, so a subplan reachable from two copied roots maps to one shared
// copy — the shape rewrite witnesses need: a before/after plan pair
// wired to the same copied inputs. Table payloads are immutable by the
// package's concurrency model and stay shared with the original.
type Copier struct{ memo map[Plan]Plan }

// NewCopier returns a Copier with an empty memo.
func NewCopier() *Copier { return &Copier{memo: map[Plan]Plan{}} }

// Replace pre-seeds the memo: every occurrence of orig reached by later
// Copy calls resolves to repl instead of a fresh copy. Translation
// validation uses it to substitute synthesized literal tables for the
// inputs of a rewrite witness.
func (c *Copier) Replace(orig, repl Plan) { c.memo[orig] = repl }

// Copy returns a deep copy of the DAG rooted at p, preserving sharing.
func (c *Copier) Copy(p Plan) Plan {
	if p == nil {
		return nil
	}
	if q, ok := c.memo[p]; ok {
		return q
	}
	q := c.CopyNode(p)
	c.memo[p] = q
	return q
}

// CopyNode copies the single node p — cloning its owned annotation
// slices and resolving its inputs through Copy — without memoizing p
// itself, so two CopyNode calls on one node yield distinct clones (the
// before and after snapshots of one rewrite step).
//
// The copy is derived from the operator's struct definition in plan.go,
// so a new operator or annotation field needs no code here: the struct
// is copied by value, every slice reachable through its fields and
// slice elements is replaced by a fresh one (pointers — the *Table
// payloads — and the Plan interfaces are not followed), and each input
// is then re-wired through Inputs/SetInput. Only rewrite tracing reaches
// this routine; nothing on the execution path reflects.
func (c *Copier) CopyNode(p Plan) Plan {
	src := reflect.ValueOf(p).Elem()
	dst := reflect.New(src.Type())
	dst.Elem().Set(src)
	if clone := slicesOf(src.Type()); clone != nil {
		clone(dst.Elem())
	}
	q := dst.Interface().(Plan)
	for i, in := range q.Inputs() {
		q.SetInput(i, c.Copy(in))
	}
	return q
}

// sliceCloners caches slicesOf per type, so a traced compile walks an
// operator's field list once, not once per copied node.
var sliceCloners sync.Map // reflect.Type -> func(reflect.Value)

// slicesOf returns the routine that gives an addressable value of type
// t its own copy of every slice it holds, to any depth of struct fields
// and slice elements, or nil when t holds none.
func slicesOf(t reflect.Type) func(reflect.Value) {
	if f, ok := sliceCloners.Load(t); ok {
		return f.(func(reflect.Value))
	}
	var clone func(reflect.Value)
	switch t.Kind() {
	case reflect.Slice:
		elem := slicesOf(t.Elem())
		clone = func(v reflect.Value) {
			if v.IsNil() {
				return
			}
			own := reflect.MakeSlice(t, v.Len(), v.Len())
			reflect.Copy(own, v)
			v.Set(own)
			for i := 0; elem != nil && i < own.Len(); i++ {
				elem(own.Index(i))
			}
		}
	case reflect.Struct:
		var fields []func(reflect.Value)
		for i := 0; i < t.NumField(); i++ {
			if f := slicesOf(t.Field(i).Type); f != nil {
				fields = append(fields, func(v reflect.Value) { f(v.Field(i)) })
			}
		}
		if fields != nil {
			clone = func(v reflect.Value) {
				for _, f := range fields {
					f(v)
				}
			}
		}
	}
	sliceCloners.Store(t, clone)
	return clone
}

// TablesEqual reports whether two tables hold the same schema and the
// same rows in the same order (nil tables compare equal only to nil).
func TablesEqual(a, b *Table) bool {
	if a == nil || b == nil {
		return a == b
	}
	if a == b {
		return true
	}
	if a.N != b.N || len(a.names) != len(b.names) {
		return false
	}
	for i, name := range a.names {
		if b.names[i] != name {
			return false
		}
		ca, cb := &a.cols[i], &b.cols[i]
		if ca.Kind != cb.Kind {
			return false
		}
		switch ca.Kind {
		case KInt:
			for r := range ca.Int {
				if ca.Int[r] != cb.Int[r] {
					return false
				}
			}
		case KBool:
			for r := range ca.Bool {
				if ca.Bool[r] != cb.Bool[r] {
					return false
				}
			}
		default:
			for r := 0; r < ca.Item.Len(); r++ {
				if ca.Item.At(r) != cb.Item.At(r) {
					return false
				}
			}
		}
	}
	return true
}
