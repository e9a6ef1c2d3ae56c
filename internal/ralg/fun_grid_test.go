package ralg

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"mxq/internal/naive"
	"mxq/internal/store"
	"mxq/internal/xqerr"
	"mxq/internal/xqt"
)

// The FunOp grid: every row-wise function × every argument
// representation, checked row by row against the independent oracle
// (internal/naive evaluating the one-operator query under bindings) —
// not against a second implementation inside this package. Adding a
// FunOp means one funKernel case and one row of funGridOps.

const funGridDoc = `<r><a x="1" y="2.5">7</a><b x="abc">text</b><c>3.5</c><ns:d xmlns:ns="urn:x" ns:z="4"/><e>2</e></r>`

// funGridOps maps every FunOp to the query that applies just that
// operator to $a (and $b).
var funGridOps = []struct {
	op    FunOp
	query string
	arity int
}{
	{FunAdd, `$a + $b`, 2}, {FunSub, `$a - $b`, 2}, {FunMul, `$a * $b`, 2},
	{FunDiv, `$a div $b`, 2}, {FunIDiv, `$a idiv $b`, 2}, {FunMod, `$a mod $b`, 2},
	{FunNeg, `-$a`, 1},
	{FunEq, `$a eq $b`, 2}, {FunNe, `$a ne $b`, 2}, {FunLt, `$a lt $b`, 2},
	{FunLe, `$a le $b`, 2}, {FunGt, `$a gt $b`, 2}, {FunGe, `$a ge $b`, 2},
	{FunAtomize, `data($a)`, 1}, {FunStringOf, `string($a)`, 1}, {FunNumber, `number($a)`, 1},
	{FunContains, `contains($a, $b)`, 2}, {FunStartsWith, `starts-with($a, $b)`, 2},
	{FunConcat, `concat($a, $b)`, 2},
	{FunNodeBefore, `$a << $b`, 2}, {FunNodeAfter, `$a >> $b`, 2}, {FunNodeIs, `$a is $b`, 2},
	{FunNameOf, `name($a)`, 1}, {FunLocalName, `local-name($a)`, 1},
	{FunEbvAtom, `boolean($a)`, 1},
	{FunFloor, `floor($a)`, 1}, {FunCeil, `ceiling($a)`, 1}, {FunRound, `round($a)`, 1},
	{FunStrLen, `string-length($a)`, 1},
}

// gridArg is one argument column with the oracle's view of its rows.
type gridArg struct {
	col  ItemVec
	vals []naive.Val
}

// funGrid builds argument columns of every representation over one
// small document loaded into both engines.
type funGrid struct {
	pool  *store.Pool
	in    *naive.Interp
	nodes []gridNode // tree nodes, then attributes
	rng   *rand.Rand
}

type gridNode struct {
	item xqt.Item
	val  naive.Val
	num  bool // the string value is a finite nonzero number
}

func newFunGrid(t *testing.T) *funGrid {
	t.Helper()
	c, err := store.Shred("d", strings.NewReader(funGridDoc), false)
	if err != nil {
		t.Fatal(err)
	}
	g := &funGrid{pool: store.NewPool(), in: naive.New(), rng: rand.New(rand.NewSource(17))}
	g.pool.Register(c)
	root := naive.FromContainer(c, g.in.OrdCounter())
	g.in.LoadDOM("d", root)
	// pair the two engines' nodes by a preorder walk of both
	pre := int32(0)
	var attrs []gridNode
	var walk func(n *naive.Node)
	walk = func(n *naive.Node) {
		sv := n.StringValue()
		g.nodes = append(g.nodes, gridNode{xqt.Node(c.ID, pre), naive.Val{Node: n}, gridNumeric(sv)})
		if n.Kind == store.KindElem {
			ac, lo, _ := c.Attrs(pre)
			for i, a := range n.Attrs {
				attrs = append(attrs, gridNode{xqt.Attr(ac.ID, lo+int32(i)), naive.Val{Owner: n, AIdx: i}, gridNumeric(a.Val)})
			}
		}
		pre++
		for _, ch := range n.Children {
			walk(ch)
		}
	}
	walk(root)
	g.nodes = append(g.nodes, attrs...)
	return g
}

func gridNumeric(s string) bool {
	f := xqt.ParseDouble(s)
	return f != 0 && !math.IsNaN(f) && !math.IsInf(f, 0)
}

const funGridRows = 24

var funGridKinds = []string{"int", "double", "string", "untyped", "bool", "node", "attr",
	"demoted-int", "demoted-node", "mixed"}

// atom draws a value of kind k. Safe values cast to finite nonzero
// numbers, so the partial operators (idiv, mod) are checked on values,
// not only on which error they raise.
func (g *funGrid) atom(k xqt.Kind, safe bool) xqt.Item {
	pick := func(n int) int { return g.rng.Intn(n) }
	switch k {
	case xqt.KInt:
		if safe {
			return xqt.Int(int64(1 + pick(9)))
		}
		return xqt.Int(int64(pick(7) - 3))
	case xqt.KDouble:
		if safe {
			return xqt.Double(float64(1+pick(40)) / 4)
		}
		return xqt.Double([]float64{0, -0.5, 2.5, 7, math.NaN(), math.Inf(1), math.Inf(-1), 1e300}[pick(8)])
	case xqt.KBool:
		return xqt.Bool(safe || pick(2) == 0)
	case xqt.KUntyped:
		if safe {
			return xqt.Untyped([]string{"1", "2.5", " 4 "}[pick(3)])
		}
		return xqt.Untyped([]string{"1", "2.5", "x", "", "0", "true"}[pick(6)])
	default:
		if safe {
			return xqt.Str([]string{"2", "0.5"}[pick(2)])
		}
		return xqt.Str([]string{"a", "ab", "b", "", "7", "héllo"}[pick(6)])
	}
}

func (g *funGrid) node(k xqt.Kind, safe bool) gridNode {
	for {
		n := g.nodes[g.rng.Intn(len(g.nodes))]
		if n.item.K == k && (n.num || !safe) {
			return n
		}
	}
}

func (g *funGrid) arg(kind string, safe bool) gridArg {
	var a gridArg
	var items []xqt.Item
	add := func(k xqt.Kind) {
		if k == xqt.KNode || k == xqt.KAttr {
			n := g.node(k, safe)
			items, a.vals = append(items, n.item), append(a.vals, n.val)
			return
		}
		it := g.atom(k, safe)
		items, a.vals = append(items, it), append(a.vals, naive.Val{Atom: it})
	}
	uniform := map[string]xqt.Kind{"int": xqt.KInt, "double": xqt.KDouble, "string": xqt.KString,
		"untyped": xqt.KUntyped, "bool": xqt.KBool, "node": xqt.KNode, "attr": xqt.KAttr,
		"demoted-int": xqt.KInt, "demoted-node": xqt.KNode}
	for i := 0; i < funGridRows; i++ {
		if k, ok := uniform[kind]; ok {
			add(k)
		} else {
			add(xqt.Kind(g.rng.Intn(int(xqt.KAttr) + 1)))
		}
	}
	if a.col = NewItemVec(items); strings.HasPrefix(kind, "demoted") {
		a.col = demote(a.col)
	}
	return a
}

// oracle evaluates the one-operator query on every row; a failing row
// records the error's code.
func (g *funGrid) oracle(t *testing.T, query string, args []gridArg) (vals []xqt.Item, codes map[string]bool) {
	t.Helper()
	codes = map[string]bool{}
	decl := "declare variable $a external; "
	if len(args) == 2 {
		decl += "declare variable $b external; "
	}
	for i := 0; i < funGridRows; i++ {
		var it xqt.Item
		binds := map[string][]naive.Val{"a": {args[0].vals[i]}}
		if len(args) == 2 {
			binds["b"] = []naive.Val{args[1].vals[i]}
		}
		seq, err := g.in.QueryBound(decl+query, binds)
		var xe *xqerr.Error
		switch {
		case errors.As(err, &xe):
			codes[xe.Code] = true
		case err != nil || len(seq) != 1 || seq[0].IsNode():
			t.Fatalf("oracle: %s row %d: %v, %v", query, i, seq, err)
		default:
			it = seq[0].Atom
		}
		vals = append(vals, it)
	}
	return vals, codes
}

func sameItem(a, b xqt.Item) bool {
	if a.K == xqt.KDouble && b.K == xqt.KDouble {
		return math.Float64bits(a.F) == math.Float64bits(b.F) // NaN equals NaN, -0 differs from +0
	}
	return a == b
}

func TestFunGridMatchesOracle(t *testing.T) {
	g := newFunGrid(t)
	seen := map[FunOp]bool{}
	for _, o := range funGridOps {
		seen[o.op] = true
		kindsA, kindsB := funGridKinds, funGridKinds
		if o.arity == 1 {
			kindsB = []string{""}
		}
		for _, ka := range kindsA {
			for _, kb := range kindsB {
				for _, safe := range []bool{false, true} {
					args := []gridArg{g.arg(ka, safe)}
					names := []string{"a"}
					tab := &Table{}
					tab.AddCol("a", args[0].col)
					if o.arity == 2 {
						args = append(args, g.arg(kb, safe))
						names = append(names, "b")
						tab.AddCol("b", args[1].col)
					}
					want, codes := g.oracle(t, o.query, args)
					label := fmt.Sprintf("%s over (%s, %s) safe=%v", o.query, ka, kb, safe)
					ex := NewExec(g.pool, nil)
					out, err := ex.execFun(&Fun{Op: o.op, Args: names, Out: "o"}, tab)
					if len(codes) > 0 {
						// some row is an error in the oracle: the column is one here
						var xe *xqerr.Error
						if !errors.As(err, &xe) || !codes[xe.Code] {
							t.Errorf("%s: err = %v, oracle raises %v", label, err, codes)
						}
						continue
					}
					if err != nil {
						t.Errorf("%s: %v", label, err)
						continue
					}
					oc := out.Col("o")
					for i, w := range want {
						if got := oc.At(i); !sameItem(got, w) {
							t.Errorf("%s row %d (%+v, %+v): got %+v, oracle %+v",
								label, i, args[0].vals[i].Atom, args[len(args)-1].vals[i].Atom, got, w)
							break
						}
					}
				}
			}
		}
	}
	for op := FunAdd; op <= FunLocalName; op++ {
		if !seen[op] {
			t.Errorf("FunOp %d has no grid row", op)
		}
	}
}
