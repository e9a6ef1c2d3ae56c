// Package ralg is the columnar relational algebra engine that hosts the
// XQuery compilation scheme of MonetDB/XQuery. It provides the operator
// repertoire the paper's plans are built from (paper §2.1 and §4):
// projection, selection, row numbering ρ (DENSE_RANK), equi-/theta-joins
// with positional and existential variants, disjoint union, difference,
// duplicate elimination, grouped aggregation, sorting, the staircase-join
// location step, and XML node construction.
//
// Tables are sets of named, equally long columns. Three column kinds
// exist: dense integers (iter/pos/inner/outer columns), booleans
// (predicates), and XQuery items (the item columns of the iter|pos|item
// sequence encoding). Item columns are stored as typed vectors — a tag
// vector plus parallel int64/float64/string/node payload vectors
// (ItemVec) — so the kernels dispatch on the item kind once per column
// when the tag is uniform (the overwhelmingly common case after a Step
// or a cast) instead of once per row.
//
// # Concurrency model
//
// Plans and tables are immutable once produced: operators build fresh
// output tables (possibly sharing read-only column payloads with their
// inputs), so one compiled plan may be executed by any number of Exec
// instances concurrently, each with its own memo table, statistics and
// transient container. Within one execution, Exec.Par additionally
// cuts the input of the hot operators — Step/AttrStep, RowNum, Aggr,
// Select, Fun, HashJoin build and probe — into chunks run on a bounded
// goroutine pool, with chunk boundaries aligned to iter/part group
// runs so the output does not depend on the chunk count (see
// parallel.go).
package ralg

import (
	"fmt"
	"strings"

	"mxq/internal/xqt"
)

// ColKind discriminates column representations.
type ColKind uint8

// Column kinds.
const (
	KInt  ColKind = iota // int64 column
	KBool                // boolean column
	KItem                // typed-vector XQuery item column
)

// ItemVec is the typed-vector representation of an item column: a tag
// per row plus parallel payload vectors, one per payload type. For every
// row the payload vectors its kind uses (mirroring the field rules of
// xqt.Item) carry the value:
//
//	KInt, KBool:       I
//	KDouble:           F
//	KString, KUntyped: S
//	KNode, KAttr:      Cont, I
//
// A payload vector is either nil (no row of the column needs it) or has
// exactly Len() entries, with zero values on the rows of other kinds.
// When every row shares one kind, Tags is nil and Tag holds that kind —
// the uniform case the vectorized kernels dispatch on once per column.
// Like tables, vectors are immutable once their table is produced, so
// operators may share payload slices with their inputs.
type ItemVec struct {
	Tags []xqt.Kind // per-row kinds; nil when the column is uniform
	Tag  xqt.Kind   // the uniform kind (meaningful when Tags is nil)
	n    int

	Cont []int32
	I    []int64
	F    []float64
	S    []string
}

// payloads reports which payload vectors rows of kind k use.
func payloads(k xqt.Kind) (cont, i, f, s bool) {
	switch k {
	case xqt.KInt, xqt.KBool:
		return false, true, false, false
	case xqt.KDouble:
		return false, false, true, false
	case xqt.KString, xqt.KUntyped:
		return false, false, false, true
	default: // KNode, KAttr
		return true, true, false, false
	}
}

// growPayload extends one payload vector of an n-row column by count
// zero rows. A vector no row has needed so far stays nil unless the new
// rows use it.
func growPayload[T any](p []T, used bool, n, count int) []T {
	if p == nil && !used {
		return nil
	}
	if p == nil {
		p = make([]T, n, n+count)
	}
	return append(p, make([]T, count)...)
}

// appendPayload appends the on-row payload vector o (nil: zero rows) to
// the n-row vector p, keeping p nil when neither column carries it.
func appendPayload[T any](p, o []T, n, on int) []T {
	if o == nil {
		return growPayload(p, false, n, on)
	}
	if p == nil {
		p = make([]T, n, n+on)
	}
	return append(p, o...)
}

// gatherOf returns src[idx[0]], src[idx[1]], …; a payload the column
// does not carry (nil) stays nil.
func gatherOf[T any](src []T, idx []int32) []T {
	if src == nil {
		return nil
	}
	out := make([]T, len(idx))
	for i, j := range idx {
		out[i] = src[j]
	}
	return out
}

// Len returns the number of rows.
func (v *ItemVec) Len() int { return v.n }

// Uniform returns the column's single kind when all rows share one (an
// empty vector counts as uniform).
func (v *ItemVec) Uniform() (xqt.Kind, bool) { return v.Tag, v.Tags == nil }

// KindAt returns the kind of row i.
func (v *ItemVec) KindAt(i int) xqt.Kind {
	if v.Tags != nil {
		return v.Tags[i]
	}
	return v.Tag
}

// At reconstructs row i as an xqt.Item.
func (v *ItemVec) At(i int) xqt.Item {
	switch k := v.KindAt(i); k {
	case xqt.KInt, xqt.KBool:
		return xqt.Item{K: k, I: v.I[i]}
	case xqt.KDouble:
		return xqt.Item{K: k, F: v.F[i]}
	case xqt.KString, xqt.KUntyped:
		return xqt.Item{K: k, S: v.S[i]}
	default:
		return xqt.Item{K: k, Cont: v.Cont[i], I: v.I[i]}
	}
}

// growRows appends count rows of kind k with zero payloads and returns
// the index of the first new row. The caller fills the payload vectors
// directly (possibly in parallel chunks — the rows are disjoint).
func (v *ItemVec) growRows(k xqt.Kind, count int) int {
	base := v.n
	if count <= 0 {
		return base
	}
	if v.Tags == nil && v.n > 0 && k != v.Tag {
		tags := make([]xqt.Kind, v.n, v.n+count)
		for i := range tags {
			tags[i] = v.Tag
		}
		v.Tags = tags
	}
	if v.n == 0 && v.Tags == nil {
		v.Tag = k
	}
	if v.Tags != nil {
		for j := 0; j < count; j++ {
			v.Tags = append(v.Tags, k)
		}
	}
	cont, i, f, s := payloads(k)
	v.Cont = growPayload(v.Cont, cont, v.n, count)
	v.I = growPayload(v.I, i, v.n, count)
	v.F = growPayload(v.F, f, v.n, count)
	v.S = growPayload(v.S, s, v.n, count)
	v.n += count
	return base
}

// Append appends one item.
func (v *ItemVec) Append(it xqt.Item) {
	i := v.growRows(it.K, 1)
	switch it.K {
	case xqt.KInt, xqt.KBool:
		v.I[i] = it.I
	case xqt.KDouble:
		v.F[i] = it.F
	case xqt.KString, xqt.KUntyped:
		v.S[i] = it.S
	default:
		v.Cont[i] = it.Cont
		v.I[i] = it.I
	}
}

// AppendVec appends all rows of o (payload contents are copied, never
// aliased, so o stays untouched by later appends to v).
func (v *ItemVec) AppendVec(o *ItemVec) {
	if o.n == 0 {
		return
	}
	if v.Tags == nil && o.Tags == nil && (v.n == 0 || o.Tag == v.Tag) {
		// stays uniform
		if v.n == 0 {
			v.Tag = o.Tag
		}
	} else if v.Tags == nil {
		tags := make([]xqt.Kind, v.n, v.n+o.n)
		for i := range tags {
			tags[i] = v.Tag
		}
		v.Tags = tags
	}
	if v.Tags != nil {
		if o.Tags != nil {
			v.Tags = append(v.Tags, o.Tags...)
		} else {
			for j := 0; j < o.n; j++ {
				v.Tags = append(v.Tags, o.Tag)
			}
		}
	}
	v.Cont = appendPayload(v.Cont, o.Cont, v.n, o.n)
	v.I = appendPayload(v.I, o.I, v.n, o.n)
	v.F = appendPayload(v.F, o.F, v.n, o.n)
	v.S = appendPayload(v.S, o.S, v.n, o.n)
	v.n += o.n
}

// Gather returns a new vector holding rows idx, in order. A mixed tag
// vector stays mixed even if the gathered rows happen to share a kind
// (re-detecting uniformity would cost a scan per gather).
func (v *ItemVec) Gather(idx []int32) ItemVec {
	return ItemVec{Tags: gatherOf(v.Tags, idx), Tag: v.Tag, n: len(idx),
		Cont: gatherOf(v.Cont, idx), I: gatherOf(v.I, idx), F: gatherOf(v.F, idx), S: gatherOf(v.S, idx)}
}

// Slice materializes the vector as a polymorphic item slice (a
// compatibility accessor for tests and result extraction; kernels read
// the payload vectors directly).
func (v *ItemVec) Slice() []xqt.Item {
	out := make([]xqt.Item, v.n)
	for i := range out {
		out[i] = v.At(i)
	}
	return out
}

// NewItemVec builds a vector from a polymorphic item slice.
func NewItemVec(items []xqt.Item) ItemVec {
	v := ItemVec{}
	for _, it := range items {
		v.Append(it)
	}
	return v
}

// ItemsOf builds a vector from the given items (test convenience).
func ItemsOf(items ...xqt.Item) ItemVec { return NewItemVec(items) }

// constItemVec builds a uniform vector holding n copies of it.
func constItemVec(it xqt.Item, n int) ItemVec {
	v := ItemVec{}
	v.growRows(it.K, n)
	switch it.K {
	case xqt.KInt, xqt.KBool:
		for i := range v.I {
			v.I[i] = it.I
		}
	case xqt.KDouble:
		for i := range v.F {
			v.F[i] = it.F
		}
	case xqt.KString, xqt.KUntyped:
		for i := range v.S {
			v.S[i] = it.S
		}
	default:
		for i := range v.Cont {
			v.Cont[i] = it.Cont
			v.I[i] = it.I
		}
	}
	return v
}

// Col is a single column. The payload determined by Kind is meaningful;
// for KItem the Item vector holds the rows.
type Col struct {
	Kind ColKind
	Int  []int64
	Bool []bool
	Item ItemVec
}

// Len returns the number of rows in the column.
func (c *Col) Len() int {
	switch c.Kind {
	case KInt:
		return len(c.Int)
	case KBool:
		return len(c.Bool)
	default:
		return c.Item.Len()
	}
}

// Gather returns a new column holding rows idx of c, in order.
func (c *Col) Gather(idx []int32) Col {
	switch c.Kind {
	case KInt:
		return Col{Kind: KInt, Int: gatherOf(c.Int, idx)}
	case KBool:
		return Col{Kind: KBool, Bool: gatherOf(c.Bool, idx)}
	}
	return Col{Kind: KItem, Item: c.Item.Gather(idx)}
}

// Table is a named collection of columns of equal length.
type Table struct {
	N     int
	names []string
	cols  []Col
}

// NewTable returns an empty table with the given column names and kinds.
func NewTable(names []string, kinds []ColKind) *Table {
	if len(names) != len(kinds) {
		panic("ralg: names/kinds mismatch")
	}
	t := &Table{names: append([]string(nil), names...)}
	t.cols = make([]Col, len(kinds))
	for i, k := range kinds {
		t.cols[i].Kind = k
	}
	return t
}

// Names returns the column names in schema order.
func (t *Table) Names() []string { return t.names }

// Col returns the column with the given name, panicking if absent (a
// compiler bug, not a data error).
func (t *Table) Col(name string) *Col {
	for i, n := range t.names {
		if n == name {
			return &t.cols[i]
		}
	}
	panic(fmt.Sprintf("ralg: no column %q in table %v", name, t.names))
}

// HasCol reports whether the table has a column with the given name.
func (t *Table) HasCol(name string) bool {
	for _, n := range t.names {
		if n == name {
			return true
		}
	}
	return false
}

// AddCol appends a column to the schema.
func (t *Table) AddCol(name string, c Col) {
	if c.Len() != t.N && !(t.N == 0 && len(t.names) == 0) {
		panic(fmt.Sprintf("ralg: column %q length %d != %d", name, c.Len(), t.N))
	}
	if len(t.names) == 0 {
		t.N = c.Len()
	}
	t.names = append(t.names, name)
	t.cols = append(t.cols, c)
}

// withCol returns a table sharing t's columns (zero-copy) plus c.
func (t *Table) withCol(name string, c Col) *Table {
	return &Table{N: t.N, names: append(t.names[:len(t.names):len(t.names)], name),
		cols: append(t.cols[:len(t.cols):len(t.cols)], c)}
}

// Gather returns a new table holding rows idx of t, in order.
func (t *Table) Gather(idx []int32) *Table {
	out := &Table{N: len(idx), names: append([]string(nil), t.names...)}
	out.cols = make([]Col, len(t.cols))
	for i := range t.cols {
		out.cols[i] = t.cols[i].Gather(idx)
	}
	return out
}

// Ints returns the int64 payload of an integer column.
func (t *Table) Ints(name string) []int64 { return t.Col(name).Int }

// Items materializes an item column as a polymorphic slice. Hot kernels
// use ItemVec instead; this accessor serves tests, plan-building around
// tiny tables and result extraction.
func (t *Table) Items(name string) []xqt.Item { return t.Col(name).Item.Slice() }

// ItemVec returns the typed-vector payload of an item column.
func (t *Table) ItemVec(name string) *ItemVec { return &t.Col(name).Item }

// Bools returns the boolean payload of a boolean column.
func (t *Table) Bools(name string) []bool { return t.Col(name).Bool }

// String renders the table for debugging and test failure messages.
func (t *Table) String() string {
	var sb strings.Builder
	sb.WriteString(strings.Join(t.names, "|"))
	sb.WriteString("\n")
	for r := 0; r < t.N && r < 50; r++ {
		for i := range t.cols {
			if i > 0 {
				sb.WriteString(" ")
			}
			c := &t.cols[i]
			switch c.Kind {
			case KInt:
				fmt.Fprintf(&sb, "%d", c.Int[r])
			case KBool:
				fmt.Fprintf(&sb, "%v", c.Bool[r])
			default:
				it := c.Item.At(r)
				switch it.K {
				case xqt.KNode:
					fmt.Fprintf(&sb, "node(%d,%d)", it.Cont, it.I)
				case xqt.KAttr:
					fmt.Fprintf(&sb, "attr(%d,%d)", it.Cont, it.I)
				default:
					fmt.Fprintf(&sb, "%s", it.AsString())
				}
			}
		}
		sb.WriteString("\n")
	}
	if t.N > 50 {
		fmt.Fprintf(&sb, "... (%d rows)\n", t.N)
	}
	return sb.String()
}

// MemBytes estimates the heap bytes held by the vector's slices: O(1),
// computed from capacities, with a flat per-header charge for strings
// (the byte data itself is usually shared with the store). Budget
// accounting wants a cheap consistent estimate, not malloc truth.
func (v *ItemVec) MemBytes() int64 {
	n := int64(cap(v.Tags)) + 4*int64(cap(v.Cont)) + 8*int64(cap(v.I)) + 8*int64(cap(v.F)) + 16*int64(cap(v.S))
	return n
}

// MemBytes estimates the heap bytes held by the column.
func (c *Col) MemBytes() int64 {
	return 8*int64(cap(c.Int)) + int64(cap(c.Bool)) + c.Item.MemBytes()
}

// MemBytes estimates the heap bytes held by the table's columns.
// Zero-copy operators share payload slices with their inputs, so
// summing MemBytes across a plan's tables overcounts; budget charges
// are therefore issued by the operator that materialized the storage,
// not per table reference.
func (t *Table) MemBytes() int64 {
	var n int64
	for i := range t.cols {
		n += t.cols[i].MemBytes()
	}
	return n
}
