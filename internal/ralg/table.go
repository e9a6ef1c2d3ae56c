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

// payload returns an n-row payload vector of the out region — zeroed
// when only some rows will be written — or nil when the column does not
// use it.
func payload[T any](e *Exec, used, zero bool, n int) []T {
	if !used {
		return nil
	}
	return carve[T](e, outRegion, n, zero)
}

// gatherOf returns src[idx[0]], src[idx[1]], …, in region rg; a payload
// the column does not carry (nil) stays nil.
func gatherOf[T any](e *Exec, rg regionID, src []T, idx []int32) []T {
	if src == nil {
		return nil
	}
	out := dirty[T](e, rg, len(idx))
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

// Append appends one item by rebuilding the vector — O(n), a convenience
// for tests and plan-building code; NewItemVec builds a vector at once.
func (v *ItemVec) Append(it xqt.Item) { o := itemVecOf(nil, []xqt.Item{it}); v.AppendVec(&o) }

// AppendVec appends all rows of o (payload contents are copied, never
// aliased, so o stays untouched by later appends to v).
func (v *ItemVec) AppendVec(o *ItemVec) { *v = unionVecs(nil, []ItemVec{*v, *o}) }

// unionPayload concatenates one payload vector of the parts (of picks
// it; n rows in all) at its exact size; a part that does not carry it
// contributes zero rows, and nil comes back when no part does.
func unionPayload[T any](e *Exec, parts []ItemVec, n int, of func(*ItemVec) []T) []T {
	carried, sparse := false, false
	for k := range parts {
		p := &parts[k]
		carried, sparse = carried || of(p) != nil, sparse || (p.n > 0 && of(p) == nil)
	}
	if !carried {
		return nil
	}
	out, o := carve[T](e, outRegion, n, sparse), 0
	for k := range parts {
		copy(out[o:], of(&parts[k]))
		o += parts[k].n
	}
	return out
}

// unionVecs concatenates item vectors into one sized exactly, uniform
// when the non-empty parts agree on one kind.
func unionVecs(e *Exec, parts []ItemVec) ItemVec {
	var out ItemVec
	uniform := true
	for _, p := range parts {
		if p.n > 0 && out.n == 0 {
			out.Tag = p.Tag
		}
		uniform = uniform && (p.n == 0 || p.Tags == nil && p.Tag == out.Tag)
		out.n += p.n
	}
	if !uniform {
		out.Tags = dirty[xqt.Kind](e, outRegion, out.n)
		o := 0
		for _, p := range parts {
			if fillWith(out.Tags[o:o+p.n], p.Tag); p.Tags != nil {
				copy(out.Tags[o:], p.Tags)
			}
			o += p.n
		}
	}
	out.Cont = unionPayload(e, parts, out.n, func(p *ItemVec) []int32 { return p.Cont })
	out.I = unionPayload(e, parts, out.n, func(p *ItemVec) []int64 { return p.I })
	out.F = unionPayload(e, parts, out.n, func(p *ItemVec) []float64 { return p.F })
	out.S = unionPayload(e, parts, out.n, func(p *ItemVec) []string { return p.S })
	return out
}

// fillWith sets every element of s to v.
func fillWith[T any](s []T, v T) {
	for i := range s {
		s[i] = v
	}
}

// gatherIn returns a new vector holding rows idx, in order, in region rg
// of e's arena. A mixed tag vector stays mixed even if the gathered rows
// happen to share a kind (re-detecting uniformity would cost a scan per
// gather).
func (v *ItemVec) gatherIn(e *Exec, rg regionID, idx []int32) ItemVec {
	return ItemVec{Tags: gatherOf(e, rg, v.Tags, idx), Tag: v.Tag, n: len(idx), Cont: gatherOf(e, rg, v.Cont, idx),
		I: gatherOf(e, rg, v.I, idx), F: gatherOf(e, rg, v.F, idx), S: gatherOf(e, rg, v.S, idx)}
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
func NewItemVec(items []xqt.Item) ItemVec { return itemVecOf(nil, items) }

// ItemsOf builds a vector from the given items (test convenience).
func ItemsOf(items ...xqt.Item) ItemVec { return NewItemVec(items) }

// itemVecOf builds a vector from items at its exact size: uniform when
// the items share a kind, and carrying only the payloads their kinds use.
func itemVecOf(e *Exec, items []xqt.Item) ItemVec {
	v := ItemVec{n: len(items)}
	if v.n == 0 {
		return v
	}
	v.Tag = items[0].K
	var cont, i, f, s bool
	for k := range items {
		c2, i2, f2, s2 := payloads(items[k].K)
		cont, i, f, s = cont || c2, i || i2, f || f2, s || s2
		if items[k].K != v.Tag && v.Tags == nil {
			v.Tags = dirty[xqt.Kind](e, outRegion, v.n)
		}
	}
	mixed := v.Tags != nil
	v.Cont, v.I = payload[int32](e, cont, mixed, v.n), payload[int64](e, i, mixed, v.n)
	v.F, v.S = payload[float64](e, f, mixed, v.n), payload[string](e, s, mixed, v.n)
	for k := range items {
		it := &items[k]
		if mixed {
			v.Tags[k] = it.K
		}
		switch it.K {
		case xqt.KInt, xqt.KBool:
			v.I[k] = it.I
		case xqt.KDouble:
			v.F[k] = it.F
		case xqt.KString, xqt.KUntyped:
			v.S[k] = it.S
		default:
			v.Cont[k], v.I[k] = it.Cont, it.I
		}
	}
	return v
}

// uniformVec returns an n-row vector of kind k whose payload rows the
// caller overwrites (dirty memory of the out region).
func (e *Exec) uniformVec(k xqt.Kind, n int) ItemVec {
	cont, i, f, s := payloads(k)
	return ItemVec{Tag: k, n: n, Cont: payload[int32](e, cont, false, n), I: payload[int64](e, i, false, n),
		F: payload[float64](e, f, false, n), S: payload[string](e, s, false, n)}
}

// constItemVec builds a uniform vector holding n copies of it.
func (e *Exec) constItemVec(it xqt.Item, n int) ItemVec {
	v := e.uniformVec(it.K, n)
	fillWith(v.Cont, it.Cont)
	fillWith(v.I, it.I)
	fillWith(v.F, it.F)
	fillWith(v.S, it.S)
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

// gatherIn returns a new column holding rows idx of c, in order.
func (c *Col) gatherIn(e *Exec, rg regionID, idx []int32) Col {
	switch c.Kind {
	case KInt:
		return Col{Kind: KInt, Int: gatherOf(e, rg, c.Int, idx)}
	case KBool:
		return Col{Kind: KBool, Bool: gatherOf(e, rg, c.Bool, idx)}
	}
	return Col{Kind: KItem, Item: c.Item.gatherIn(e, rg, idx)}
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
		out.cols[i] = t.cols[i].gatherIn(nil, outRegion, idx)
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
