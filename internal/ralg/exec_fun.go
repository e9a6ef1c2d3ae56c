package ralg

import (
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
	"unicode/utf8"

	"mxq/internal/store"
	"mxq/internal/xqerr"
	"mxq/internal/xqt"
)

// vecView is a uniformly tagged columnar view of an argument column:
// integer and boolean table columns view as xs:integer/xs:boolean
// payload vectors, uniform atom columns expose their payloads directly,
// and uniform node columns are atomized in bulk through the container's
// string-value kernels (becoming xs:untypedAtomic, as row-wise
// atomization would). Mixed-tag columns have no view: funCol splits them
// into uniform row groups first.
type vecView struct {
	tag xqt.Kind
	i   []int64
	f   []float64
	s   []string
}

// view resolves a uniform column to its typed view.
func (e *Exec) view(c *Col) vecView {
	switch c.Kind {
	case KInt:
		return vecView{tag: xqt.KInt, i: c.Int}
	case KBool:
		iv := zeroed[int64](e, outRegion, len(c.Bool))
		for j, b := range c.Bool {
			if b {
				iv[j] = 1
			}
		}
		return vecView{tag: xqt.KBool, i: iv}
	}
	switch vec := &c.Item; vec.Tag {
	case xqt.KInt, xqt.KBool:
		return vecView{tag: vec.Tag, i: vec.I}
	case xqt.KDouble:
		return vecView{tag: vec.Tag, f: vec.F}
	case xqt.KString, xqt.KUntyped:
		return vecView{tag: vec.Tag, s: vec.S}
	default:
		return vecView{tag: xqt.KUntyped, s: e.atomizeNodes(vec.Tag, vec)}
	}
}

// atomizeNodes computes the string values of a uniform node column.
func (e *Exec) atomizeNodes(k xqt.Kind, vec *ItemVec) []string {
	if k == xqt.KNode {
		return e.nodeStrings(vec, (*store.Container).StringValues)
	}
	return e.nodeStrings(vec, (*store.Container).AttrValues)
}

// nodeStrings maps a uniform node column to one string per row through
// one of the store's bulk kernels, batching per container run (the
// container lookup is hoisted out of the row loop).
func (e *Exec) nodeStrings(vec *ItemVec, bulk func(c *store.Container, rows []int64, out []string)) []string {
	out := dirty[string](e, outRegion, vec.Len())
	i := 0
	for i < vec.Len() {
		cont := vec.Cont[i]
		j := i
		for j < vec.Len() && vec.Cont[j] == cont {
			j++
		}
		bulk(e.Pool.Get(cont), vec.I[i:j], out[i:j])
		i = j
	}
	return out
}

// floats materializes the view as xs:double values (the AsDouble cast)
// in one conversion pass.
func (v vecView) floats(e *Exec, n int) []float64 {
	if v.tag == xqt.KDouble {
		return v.f
	}
	out := dirty[float64](e, outRegion, n)
	for i, x := range v.i { // KInt, KBool
		out[i] = float64(x)
	}
	for i, s := range v.s {
		out[i] = xqt.ParseDouble(s)
	}
	return out
}

// strs materializes the view as xs:string values (the AsString cast).
func (v vecView) strs(e *Exec) []string {
	switch v.tag {
	case xqt.KString, xqt.KUntyped:
		return v.s
	case xqt.KInt:
		return map1(e, v.i, func(x int64) string { return strconv.FormatInt(x, 10) })
	case xqt.KBool:
		return map1(e, v.i, func(x int64) string { return strconv.FormatBool(x != 0) })
	}
	return map1(e, v.f, xqt.FormatDouble)
}

// col wraps the view's payload vectors as a uniform item column.
func (v vecView) col(n int) Col {
	return Col{Kind: KItem, Item: ItemVec{Tag: v.tag, n: n, I: v.i, F: v.f, S: v.s}}
}

// uniformIntCol / uniformDoubleCol / uniformStringCol wrap a raw payload
// vector as a uniform item column; boolCol wraps a predicate column.
func uniformIntCol(vs []int64) Col      { return vecView{tag: xqt.KInt, i: vs}.col(len(vs)) }
func uniformDoubleCol(vs []float64) Col { return vecView{tag: xqt.KDouble, f: vs}.col(len(vs)) }
func uniformStringCol(vs []string) Col  { return vecView{tag: xqt.KString, s: vs}.col(len(vs)) }
func boolCol(vs []bool) Col             { return Col{Kind: KBool, Bool: vs} }
func (e *Exec) floats(c *Col) []float64 { return e.view(c).floats(e, c.Len()) }
func (e *Exec) strs(c *Col) []string    { return e.view(c).strs(e) }

// constBools is the predicate column that is b on every one of n rows.
func (e *Exec) constBools(n int, b bool) Col {
	out := dirty[bool](e, outRegion, n)
	fillWith(out, b)
	return boolCol(out)
}

// colTag is the kind of a uniform column's rows, nodes included.
func colTag(c *Col) xqt.Kind {
	switch c.Kind {
	case KInt:
		return xqt.KInt
	case KBool:
		return xqt.KBool
	}
	return c.Item.Tag
}

// map1 and map2 apply a scalar function to every row of one or two
// typed vectors, a chunk at a time.
func map1[A, R any](e *Exec, a []A, f func(A) R) []R {
	out := dirty[R](e, outRegion, len(a))
	e.chunkFill(len(a), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out[i] = f(a[i])
		}
	})
	return out
}

func map2[A, B, R any](e *Exec, a []A, b []B, f func(A, B) R) []R {
	out := dirty[R](e, outRegion, len(a))
	e.chunkFill(len(a), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out[i] = f(a[i], b[i])
		}
	})
	return out
}

// execFun evaluates the row-wise functions: one output column, a row
// per input row.
func (e *Exec) execFun(n *Fun, in *Table) (*Table, error) {
	args := make([]*Col, len(n.Args))
	for i, name := range n.Args {
		args[i] = in.Col(name)
	}
	c, err := e.funCol(n.Op, args, in.N)
	if err != nil {
		return nil, err
	}
	return in.withCol(n.Out, c), nil
}

// funCol applies op to argument columns of any tag mix. The kernels
// (funKernel) only ever see uniform columns — one kind dispatch per
// column, tight loops over the raw payload vectors. A column with a
// materialized tag vector is split by tag signature into row groups
// that are uniform in every argument, each group runs the same kernel,
// and the group outputs scatter back to row order; this step knows
// nothing about op. Uniform arguments are the zero-copy case of one
// group.
func (e *Exec) funCol(op FunOp, args []*Col, n int) (Col, error) {
	groups := tagGroups(e, args, n)
	if groups == nil {
		return e.funKernel(op, args, n)
	}
	parts := make([]Col, len(groups))
	for g, grp := range groups {
		sub := make([]*Col, len(args))
		for a, c := range args {
			u := uniformRows(e, c, grp.kinds[a], grp.idx)
			sub[a] = &u
		}
		var err error
		if parts[g], err = e.funKernel(op, sub, sub[0].Len()); err != nil {
			return Col{}, err
		}
	}
	return mergeRows(e, parts, groups, n), nil
}

// cast applies a unary op that cannot fail to one column.
func (e *Exec) cast(op FunOp, c *Col) *ItemVec {
	out, _ := e.funCol(op, []*Col{c}, c.Len())
	return &out.Item
}

// tagGroup is one set of rows whose kinds agree in every argument.
type tagGroup struct {
	kinds [2]xqt.Kind // per argument (functions take at most two)
	idx   []int32     // the rows, ascending; nil when the group is every row
}

// tagGroups splits the rows by tag signature — the tuple of the
// arguments' kinds. It returns nil when no argument has a tag vector,
// and one group without a row list when the tag vectors turn out
// constant (a demoted-uniform column): both run zero-copy.
func tagGroups(e *Exec, args []*Col, n int) []tagGroup {
	var all tagGroup
	var tags [2][]xqt.Kind
	for a, c := range args {
		all.kinds[a] = colTag(c)
		if c.Kind == KItem {
			tags[a] = c.Item.Tags
		}
	}
	if tags[0] == nil && tags[1] == nil {
		return nil
	}
	var groups []tagGroup
	var slot [64]int // signature -> 1 + its group
	for i := 0; i < n; i++ {
		k := all.kinds
		if tags[0] != nil {
			k[0] = tags[0][i]
		}
		if tags[1] != nil {
			k[1] = tags[1][i]
		}
		sig := int(k[0]) | int(k[1])<<3
		if slot[sig] == 0 {
			groups = append(groups, tagGroup{kinds: k})
			slot[sig] = len(groups)
		}
		g := &groups[slot[sig]-1]
		g.idx = append(grown(e, g.idx, 1), int32(i))
	}
	if len(groups) > 1 {
		return groups
	}
	if len(groups) == 1 {
		all.kinds = groups[0].kinds
	}
	return []tagGroup{all}
}

// uniformRows returns rows idx of c (nil: every row), all of kind k, as
// a uniform column: only the payload vectors k uses are carried over.
// The gathered rows are kernel input, gone with the operator.
func uniformRows(e *Exec, c *Col, k xqt.Kind, idx []int32) Col {
	u := *c
	if v := &c.Item; c.Kind == KItem {
		cont, i, f, s := payloads(k)
		u.Item = ItemVec{Tag: k, n: v.n, Cont: keepIf(v.Cont, cont), I: keepIf(v.I, i), F: keepIf(v.F, f), S: keepIf(v.S, s)}
	}
	if idx == nil {
		return u
	}
	return u.gatherIn(e, scratchRegion, idx)
}

func keepIf[T any](p []T, used bool) []T {
	if used {
		return p
	}
	return nil
}

// scatterRows writes src[j] to dst[idx[j]], allocating dst (n zero rows)
// on first use; groups that do not carry the payload leave it alone.
func scatterRows[T any](e *Exec, dst, src []T, idx []int32, n int) []T {
	if src == nil {
		return dst
	}
	if dst == nil {
		dst = zeroed[T](e, outRegion, n)
	}
	for j, i := range idx {
		dst[i] = src[j]
	}
	return dst
}

// mergeRows scatters the per-group kernel outputs — predicate columns
// or uniform item columns — back to row order. The result is uniform
// when the groups' outputs agree on a kind.
func mergeRows(e *Exec, parts []Col, groups []tagGroup, n int) Col {
	if len(parts) == 1 {
		return parts[0]
	}
	if parts[0].Kind == KBool {
		var out []bool
		for g := range parts {
			out = scatterRows(e, out, parts[g].Bool, groups[g].idx, n)
		}
		return boolCol(out)
	}
	out := ItemVec{Tag: parts[0].Item.Tag, n: n}
	if slices.ContainsFunc(parts, func(p Col) bool { return p.Item.Tag != out.Tag }) {
		out.Tags = dirty[xqt.Kind](e, outRegion, n)
	}
	for g := range parts {
		p, idx := &parts[g].Item, groups[g].idx
		if out.Tags != nil {
			for _, i := range idx {
				out.Tags[i] = p.Tag
			}
		}
		out.Cont = scatterRows(e, out.Cont, p.Cont, idx, n)
		out.I = scatterRows(e, out.I, p.I, idx, n)
		out.F = scatterRows(e, out.F, p.F, idx, n)
		out.S = scatterRows(e, out.S, p.S, idx, n)
	}
	return Col{Kind: KItem, Item: out}
}

func cmpOpOf(op FunOp) (xqt.CmpOp, bool) {
	switch op {
	case FunEq:
		return xqt.CmpEq, true
	case FunNe:
		return xqt.CmpNe, true
	case FunLt:
		return xqt.CmpLt, true
	case FunLe:
		return xqt.CmpLe, true
	case FunGt:
		return xqt.CmpGt, true
	case FunGe:
		return xqt.CmpGe, true
	}
	return 0, false
}

// funKernel evaluates op over uniform argument columns of n rows. Every
// FunOp is implemented here and nowhere else: a case names the shape
// helper that resolves the arguments to the typed vectors of the op's
// promotion domain, plus the scalar semantics.
//
//	comparisons   xqt.Compare's table: joinDomain (shared with ExistJoin)
//	arithmetic    xs:integer when both operands are, else xs:double
//	string ops    the xs:string cast (strs)
//	node ops      (container, pre / attribute row) straight off the column
func (e *Exec) funKernel(op FunOp, a []*Col, n int) (Col, error) {
	if cmp, ok := cmpOpOf(op); ok {
		return e.compareCols(cmp, a[0], a[1]), nil
	}
	switch op {
	case FunAnd:
		return boolCol(map2(e, a[0].Bool, a[1].Bool, func(x, y bool) bool { return x && y })), nil
	case FunOr:
		return boolCol(map2(e, a[0].Bool, a[1].Bool, func(x, y bool) bool { return x || y })), nil
	case FunNot:
		return boolCol(map1(e, a[0].Bool, func(x bool) bool { return !x })), nil

	case FunAdd:
		return e.numBinary(a, func(x, y int64) int64 { return x + y }, func(x, y float64) float64 { return x + y }), nil
	case FunSub:
		return e.numBinary(a, func(x, y int64) int64 { return x - y }, func(x, y float64) float64 { return x - y }), nil
	case FunMul:
		return e.numBinary(a, func(x, y int64) int64 { return x * y }, func(x, y float64) float64 { return x * y }), nil
	case FunDiv:
		return e.numBinary(a, nil, func(x, y float64) float64 { return x / y }), nil
	case FunMod:
		// F&O 6.2.6: an integer zero divisor is an error, xs:double mod 0 is NaN
		if intZeroDivisor(a) {
			return Col{}, errDivByZero
		}
		return e.numBinary(a, func(x, y int64) int64 { return x % y }, math.Mod), nil
	case FunIDiv:
		// F&O 6.2.5: the quotient is an xs:integer whatever the operands
		if intZeroDivisor(a) {
			return Col{}, errDivByZero
		}
		if colTag(a[0]) == xqt.KInt && colTag(a[1]) == xqt.KInt {
			return e.numBinary(a, func(x, y int64) int64 { return x / y }, nil), nil
		}
		fa, fb := e.floats(a[0]), e.floats(a[1])
		for i, y := range fb {
			switch q := fa[i] / y; {
			case y == 0:
				return Col{}, errDivByZero
			case !(math.Abs(q) < 1<<63): // a NaN operand, an infinite dividend, or overflow
				return Col{}, xqerr.Newf("FOAR0002", "idiv: %s idiv %s is not an xs:integer", xqt.FormatDouble(fa[i]), xqt.FormatDouble(y))
			}
		}
		return uniformIntCol(map2(e, fa, fb, func(x, y float64) int64 { return int64(x / y) })), nil
	case FunNeg:
		if colTag(a[0]) == xqt.KInt {
			return uniformIntCol(map1(e, e.view(a[0]).i, func(x int64) int64 { return -x })), nil
		}
		return uniformDoubleCol(map1(e, e.floats(a[0]), func(x float64) float64 { return -x })), nil
	case FunFloor:
		return uniformDoubleCol(map1(e, e.floats(a[0]), math.Floor)), nil
	case FunCeil:
		return uniformDoubleCol(map1(e, e.floats(a[0]), math.Ceil)), nil
	case FunRound:
		return uniformDoubleCol(map1(e, e.floats(a[0]), xqt.Round)), nil
	case FunNumber:
		return uniformDoubleCol(e.floats(a[0])), nil

	case FunStringOf:
		return uniformStringCol(e.strs(a[0])), nil
	case FunStrLen:
		return uniformIntCol(map1(e, e.strs(a[0]), func(s string) int64 { return int64(utf8.RuneCountInString(s)) })), nil
	case FunConcat:
		return uniformStringCol(map2(e, e.strs(a[0]), e.strs(a[1]), func(x, y string) string { return x + y })), nil
	case FunContains:
		return boolCol(map2(e, e.strs(a[0]), e.strs(a[1]), strings.Contains)), nil
	case FunStartsWith:
		return boolCol(map2(e, e.strs(a[0]), e.strs(a[1]), strings.HasPrefix)), nil
	case FunAtomize:
		// atoms atomize to themselves (the payload vectors are shared)
		return e.view(a[0]).col(n), nil

	case FunNameOf:
		names, err := e.nodeNames(a[0])
		return uniformStringCol(names), err
	case FunLocalName:
		names, err := e.nodeNames(a[0])
		return uniformStringCol(map1(e, names, xqt.LocalName)), err
	case FunNodeIs:
		return e.nodeOrder(a[0], a[1], func(ca, cb int32, oa, ob uint64) bool { return ca == cb && oa == ob })
	case FunNodeBefore:
		return e.nodeOrder(a[0], a[1], docOrderBefore)
	case FunNodeAfter:
		return e.nodeOrder(a[1], a[0], docOrderBefore)

	case FunIsNumeric:
		k := colTag(a[0])
		return e.constBools(n, k == xqt.KInt || k == xqt.KDouble), nil
	case FunEbvAtom:
		if k := colTag(a[0]); k == xqt.KNode || k == xqt.KAttr {
			return e.constBools(n, true), nil
		}
		switch v := e.view(a[0]); v.tag {
		case xqt.KDouble:
			return boolCol(map1(e, v.f, func(x float64) bool { return x != 0 && x == x })), nil
		case xqt.KString, xqt.KUntyped:
			return boolCol(map1(e, v.s, func(s string) bool { return s != "" })), nil
		default:
			return boolCol(map1(e, v.i, func(x int64) bool { return x != 0 })), nil
		}
	}
	return Col{}, fmt.Errorf("ralg: unhandled function op %d", op)
}

// compareCols is the comparison shape: both columns cast to the one
// domain xqt.Compare promotes their kinds to — the same joinDomain table
// and existKeys casts the existential join uses — and compare there.
func (e *Exec) compareCols(op xqt.CmpOp, a, b *Col) Col {
	ka, kb := atomKinds(a), atomKinds(b)
	switch dom := joinDomain(ka, kb); {
	case ka == 1<<xqt.KInt && kb == 1<<xqt.KInt:
		// xs:integer pairs compare exactly, not through xs:double
		return boolCol(map2(e, e.view(a).i, e.view(b).i, func(x, y int64) bool { return xqt.CompareInt(x, y, op) }))
	case dom == domString:
		_, sa := e.existKeys(a, dom)
		_, sb := e.existKeys(b, dom)
		return boolCol(map2(e, sa, sb, func(x, y string) bool { return xqt.CompareString(x, y, op) }))
	default: // xs:double, or xs:boolean as 0/1
		fa, _ := e.existKeys(a, dom)
		fb, _ := e.existKeys(b, dom)
		return boolCol(map2(e, fa, fb, func(x, y float64) bool { return xqt.CompareFloat(x, y, op) }))
	}
}

// numBinary is the numeric binary shape: xs:integer results when both
// operands are xs:integer (and the op has an integer form), xs:double
// over the AsDouble casts otherwise.
func (e *Exec) numBinary(a []*Col, fi func(x, y int64) int64, ff func(x, y float64) float64) Col {
	if fi != nil && colTag(a[0]) == xqt.KInt && colTag(a[1]) == xqt.KInt {
		return uniformIntCol(map2(e, e.view(a[0]).i, e.view(a[1]).i, fi))
	}
	return uniformDoubleCol(map2(e, e.floats(a[0]), e.floats(a[1]), ff))
}

var errDivByZero = xqerr.Newf("FOAR0001", "division by zero")

// intZeroDivisor reports an xs:integer division whose divisor column
// holds a zero.
func intZeroDivisor(a []*Col) bool {
	if colTag(a[0]) != xqt.KInt || colTag(a[1]) != xqt.KInt {
		return false
	}
	if a[1].Kind == KInt {
		return slices.Contains(a[1].Int, 0)
	}
	return slices.Contains(a[1].Item.I, 0)
}

// nodeVec returns the payload of a uniform node column; the node ops
// are type errors on anything else.
func nodeVec(c *Col) (*ItemVec, error) {
	if k := colTag(c); c.Len() > 0 && k != xqt.KNode && k != xqt.KAttr {
		return nil, xqerr.Newf("XPTY0004", "node operation applied to an %s value", k)
	}
	return &c.Item, nil
}

// nodeNames resolves the qualified names of a uniform node column.
func (e *Exec) nodeNames(c *Col) ([]string, error) {
	vec, err := nodeVec(c)
	if err != nil {
		return nil, err
	}
	if vec.Tag == xqt.KAttr {
		return e.nodeStrings(vec, (*store.Container).AttrNames), nil
	}
	return e.nodeStrings(vec, (*store.Container).NamesOf), nil
}

// docOrderKeys maps a uniform node column to document-order keys within
// its containers (the Cont vector is the leading key): pre<<32 for a
// tree node, owner-pre<<32 | 1+row for an attribute, which orders an
// attribute right after its owner element and its earlier siblings
// attributes, and gives two rows the same key exactly when they are the
// same node.
func (e *Exec) docOrderKeys(vec *ItemVec) []uint64 {
	out := dirty[uint64](e, scratchRegion, vec.Len())
	if vec.Tag != xqt.KAttr {
		for i, pre := range vec.I {
			out[i] = uint64(pre) << 32
		}
		return out
	}
	var c *store.Container
	for i, row := range vec.I {
		if c == nil || c.ID != vec.Cont[i] {
			c = e.Pool.Get(vec.Cont[i])
		}
		out[i] = uint64(c.AttrOwner[row])<<32 | uint64(row+1)
	}
	return out
}

func docOrderBefore(ca, cb int32, oa, ob uint64) bool { return ca < cb || (ca == cb && oa < ob) }

// nodeOrder is the node comparison shape (is, <<, >>): rel over the
// (container, document-order key) pairs of two uniform node columns.
func (e *Exec) nodeOrder(a, b *Col, rel func(ca, cb int32, oa, ob uint64) bool) (Col, error) {
	va, err := nodeVec(a)
	if err != nil {
		return Col{}, err
	}
	vb, err := nodeVec(b)
	if err != nil {
		return Col{}, err
	}
	oa, ob := e.docOrderKeys(va), e.docOrderKeys(vb)
	out := dirty[bool](e, outRegion, len(oa))
	e.chunkFill(len(oa), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out[i] = rel(va.Cont[i], vb.Cont[i], oa[i], ob[i])
		}
	})
	return boolCol(out), nil
}
