package scj

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"mxq/internal/store"
)

// --- naive oracle -----------------------------------------------------

// naiveAxis computes an axis step by definition, directly from the
// pre/size/level encoding, including per-iteration duplicate elimination
// and (pre, iter) result order.
func naiveAxis(c *store.Container, ctx Pairs, axis Axis, test Test) Pairs {
	match := func(p int32) bool { return naiveMatch(c, test, p) }
	inAxis := func(v, ctx int32) bool {
		vEnd := v + c.Size[v]
		cEnd := ctx + c.Size[ctx]
		switch axis {
		case Self:
			return v == ctx
		case Child:
			return c.Parent[v] == ctx
		case Parent:
			return c.Parent[ctx] == v
		case Descendant:
			return v > ctx && v <= cEnd
		case DescendantOrSelf:
			return v >= ctx && v <= cEnd
		case Ancestor:
			return v < ctx && vEnd >= ctx
		case AncestorOrSelf:
			return v <= ctx && vEnd >= ctx
		case Following: // never leaves the context node's tree
			return v > cEnd && c.Frag[v] == c.Frag[ctx]
		case Preceding:
			return vEnd < ctx && c.Frag[v] == c.Frag[ctx]
		case FollowingSibling:
			return c.Parent[v] == c.Parent[ctx] && c.Parent[ctx] >= 0 && v > ctx
		case PrecedingSibling:
			return c.Parent[v] == c.Parent[ctx] && c.Parent[ctx] >= 0 && v < ctx
		}
		return false
	}
	seen := make(map[int64]bool)
	var out Pairs
	for i := 0; i < ctx.Len(); i++ {
		for v := int32(0); v < int32(c.Len()); v++ {
			if !inAxis(v, ctx.Pre[i]) || !match(v) {
				continue
			}
			key := int64(v)<<32 | int64(uint32(ctx.Iter[i]))
			if seen[key] {
				continue
			}
			seen[key] = true
			out.append(v, ctx.Iter[i])
		}
	}
	(&Blocks{Segs: []Pairs{out}}).sort()
	return out
}

// append grows a test relation by one pair.
func (p *Pairs) append(pre, iter int32) {
	p.Pre = append(p.Pre, pre)
	p.Iter = append(p.Iter, iter)
}

// pairsSorted reports whether p is in (pre, iter) order.
func pairsSorted(p Pairs) bool {
	return sort.SliceIsSorted(p.Pre, func(i, j int) bool {
		return p.Pre[i] < p.Pre[j] || p.Pre[i] == p.Pre[j] && p.Iter[i] < p.Iter[j]
	})
}

// naiveMatch is the oracle's node test, written against the container's
// accessors so that it shares nothing with the compiled test.
func naiveMatch(c *store.Container, t Test, p int32) bool {
	want := map[TestKind]store.NodeKind{
		TestElem: store.KindElem, TestText: store.KindText, TestComment: store.KindComment,
		TestPI: store.KindPI, TestDoc: store.KindDoc,
	}
	if wk, ok := want[t.Kind]; ok && c.Kind[p] != wk {
		return false
	}
	named := t.Name != "" && (t.Kind == TestElem || t.Kind == TestPI)
	return !named || c.NameOf(p) == t.Name
}

func pairsEqual(a, b Pairs) bool {
	if a.Len() != b.Len() {
		return false
	}
	for i := range a.Pre {
		if a.Pre[i] != b.Pre[i] || a.Iter[i] != b.Iter[i] {
			return false
		}
	}
	return true
}

func pairsString(p Pairs) string {
	var sb strings.Builder
	for i := range p.Pre {
		fmt.Fprintf(&sb, "(%d,%d) ", p.Pre[i], p.Iter[i])
	}
	return sb.String()
}

// --- fixtures ----------------------------------------------------------

const paperDoc = `<a><b><c><d/><e/></c></b><f><g/><h><i/><j/></h></f></a>`

func shred(t testing.TB, doc string) *store.Container {
	t.Helper()
	c, err := store.Shred("t.xml", strings.NewReader(doc), false)
	if err != nil {
		t.Fatal(err)
	}
	c.BuildIndexes()
	return c
}

// randomTree builds a random container with names drawn from a small
// alphabet, returning it. Shape is controlled by rng.
func randomTree(rng *rand.Rand, maxNodes int) *store.Container {
	b := store.NewBuilder("rand.xml")
	b.StartDoc()
	names := []string{"a", "b", "c", "d"}
	n := 1 + rng.Intn(maxNodes)
	open := 1
	b.StartElem(names[rng.Intn(len(names))])
	open++
	for i := 0; i < n; i++ {
		switch r := rng.Intn(10); {
		case r < 5 && open < 12:
			b.StartElem(names[rng.Intn(len(names))])
			open++
		case r < 7:
			b.Text(fmt.Sprintf("t%d", i))
		default:
			if open > 2 {
				b.End()
				open--
			} else {
				b.StartElem(names[rng.Intn(len(names))])
				open++
			}
		}
	}
	for open > 0 {
		b.End()
		open--
	}
	c, err := b.Done()
	if err != nil {
		panic(err)
	}
	c.BuildIndexes()
	return c
}

// randomCtx draws a random sorted (pre, iter) context over c.
func randomCtx(rng *rand.Rand, c *store.Container, maxIters int) Pairs {
	var ctx Pairs
	iters := 1 + rng.Intn(maxIters)
	for it := 1; it <= iters; it++ {
		k := rng.Intn(4)
		seen := map[int32]bool{}
		for j := 0; j < k; j++ {
			p := int32(rng.Intn(c.Len()))
			if c.Kind[p] == store.KindText && rng.Intn(2) == 0 {
				continue
			}
			if !seen[p] {
				seen[p] = true
				ctx.append(p, int32(it))
			}
		}
	}
	(&Blocks{Segs: []Pairs{ctx}}).sort()
	return ctx
}

var allAxes = []Axis{
	Child, Descendant, DescendantOrSelf, Self, Parent, Ancestor,
	AncestorOrSelf, Following, Preceding, FollowingSibling, PrecedingSibling,
}

var allVariants = []Variant{LoopLifted, Iterative, CandidateList}

// --- tests --------------------------------------------------------------

func TestChildPaperExample(t *testing.T) {
	c := shred(t, paperDoc)
	// Figure 7: two iterations; iteration 1 has context (c1)=(a),
	// iteration 2 has (a, f). Children of a: b, f; children of f: g, h.
	ctx := Pairs{Pre: []int32{1, 1, 6}, Iter: []int32{1, 2, 2}}
	out := Step(c, ctx, Child, Test{Kind: TestElem}, LoopLifted, nil)
	want := Pairs{
		Pre:  []int32{2, 2, 6, 6, 7, 8},
		Iter: []int32{1, 2, 1, 2, 2, 2},
	}
	if !pairsEqual(out, want) {
		t.Errorf("child step:\n got %s\nwant %s", pairsString(out), pairsString(want))
	}
}

func TestAllAxesAgainstOracleOnPaperDoc(t *testing.T) {
	c := shred(t, paperDoc)
	ctxs := []Pairs{
		{Pre: []int32{3, 3}, Iter: []int32{1, 2}},             // (c) twice
		{Pre: []int32{3, 5, 8}, Iter: []int32{1, 1, 1}},       // c,e,i single iter
		{Pre: []int32{2, 3, 6, 8}, Iter: []int32{2, 1, 1, 2}}, // mixed
		{Pre: []int32{0}, Iter: []int32{1}},                   // document node
		{Pre: []int32{1, 1, 1}, Iter: []int32{1, 2, 3}},       // root in 3 iters
		{}, // empty context
		{Pre: []int32{4, 9, 10}, Iter: []int32{1, 1, 1}}, // leaves
	}
	tests := []Test{
		{Kind: TestNode}, {Kind: TestElem}, {Kind: TestElem, Name: "h"},
		{Kind: TestElem, Name: "nosuch"}, {Kind: TestText},
	}
	for _, axis := range allAxes {
		for ci, ctx := range ctxs {
			for _, test := range tests {
				want := naiveAxis(c, ctx, axis, test)
				for _, v := range allVariants {
					got := Step(c, ctx, axis, test, v, nil)
					if !pairsEqual(got, want) {
						t.Errorf("%v/%v ctx#%d test=%+v:\n got %s\nwant %s",
							axis, v, ci, test, pairsString(got), pairsString(want))
					}
				}
			}
		}
	}
}

func TestRandomTreesAgainstOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 60; trial++ {
		c := randomTree(rng, 60)
		ctx := randomCtx(rng, c, 6)
		for _, axis := range allAxes {
			for _, test := range []Test{{Kind: TestNode}, {Kind: TestElem, Name: "b"}} {
				want := naiveAxis(c, ctx, axis, test)
				for _, v := range allVariants {
					got := Step(c, ctx, axis, test, v, nil)
					if !pairsEqual(got, want) {
						t.Fatalf("trial %d %v/%v test=%+v ctx=%s:\n got %s\nwant %s",
							trial, axis, v, test, pairsString(ctx),
							pairsString(got), pairsString(want))
					}
				}
			}
		}
	}
}

// TestTouchBound verifies the paper's claim that (without a name test)
// staircase join touches no more than |result| + |context| document
// tuples, up to a small constant per context node.
func TestTouchBound(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 40; trial++ {
		c := randomTree(rng, 200)
		ctx := randomCtx(rng, c, 5)
		for _, axis := range []Axis{Child, Descendant} {
			var st Stats
			out := Step(c, ctx, axis, Test{Kind: TestNode}, LoopLifted, &st)
			bound := int64(out.Len()) + 2*int64(ctx.Len()) + 2
			if st.Touched > bound {
				t.Errorf("trial %d %v: touched %d > bound %d (|result|=%d |ctx|=%d)",
					trial, axis, st.Touched, bound, out.Len(), ctx.Len())
			}
		}
	}
}

// TestSkipping checks that a descendant step over a small context deep in
// a large document touches far fewer tuples than the document holds.
func TestSkipping(t *testing.T) {
	b := store.NewBuilder("big.xml")
	b.StartDoc()
	b.StartElem("root")
	for i := 0; i < 1000; i++ {
		b.StartElem("filler")
		b.Text("x")
		b.End()
	}
	b.StartElem("target")
	b.StartElem("inner")
	b.End()
	b.End()
	for i := 0; i < 1000; i++ {
		b.StartElem("filler")
		b.Text("y")
		b.End()
	}
	b.End()
	b.End()
	c, err := b.Done()
	if err != nil {
		t.Fatal(err)
	}
	// locate target
	var target int32 = -1
	for p := int32(0); p < int32(c.Len()); p++ {
		if c.Kind[p] == store.KindElem && c.NameOf(p) == "target" {
			target = p
		}
	}
	var st Stats
	out := Step(c, Pairs{Pre: []int32{target}, Iter: []int32{1}},
		Descendant, Test{Kind: TestNode}, LoopLifted, &st)
	if out.Len() != 1 {
		t.Fatalf("descendants of target = %d, want 1", out.Len())
	}
	if st.Touched > 10 {
		t.Errorf("touched %d tuples of a %d-tuple document; skipping broken",
			st.Touched, c.Len())
	}
}

// TestPruningCounter checks that covered context nodes of the same
// iteration are pruned (Figure 1) while the same pres in different
// iterations are kept.
func TestPruningCounter(t *testing.T) {
	c := shred(t, paperDoc)
	// c (pre 3) is inside b (pre 2): same iteration -> pruned
	var st Stats
	Step(c, Pairs{Pre: []int32{2, 3}, Iter: []int32{1, 1}},
		Descendant, Test{Kind: TestNode}, LoopLifted, &st)
	if st.Pruned != 1 {
		t.Errorf("same-iteration covered context: pruned = %d, want 1", st.Pruned)
	}
	// different iterations -> no pruning
	st = Stats{}
	Step(c, Pairs{Pre: []int32{2, 3}, Iter: []int32{1, 2}},
		Descendant, Test{Kind: TestNode}, LoopLifted, &st)
	if st.Pruned != 0 {
		t.Errorf("cross-iteration contexts: pruned = %d, want 0", st.Pruned)
	}
}

func TestCandidateVariantUsesIndex(t *testing.T) {
	c := shred(t, paperDoc)
	ctx := Pairs{Pre: []int32{1}, Iter: []int32{1}}
	var stFull, stCand Stats
	full := Step(c, ctx, Descendant, Test{Kind: TestElem, Name: "i"}, LoopLifted, &stFull)
	cand := Step(c, ctx, Descendant, Test{Kind: TestElem, Name: "i"}, CandidateList, &stCand)
	if !pairsEqual(full, cand) {
		t.Fatalf("candidate variant differs: %s vs %s", pairsString(full), pairsString(cand))
	}
	if stCand.Touched >= stFull.Touched {
		t.Errorf("candidate touched %d >= full scan %d", stCand.Touched, stFull.Touched)
	}
}

func TestStepResultOrdering(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 20; trial++ {
		c := randomTree(rng, 80)
		ctx := randomCtx(rng, c, 4)
		for _, axis := range allAxes {
			out := Step(c, ctx, axis, Test{Kind: TestNode}, LoopLifted, nil)
			if !pairsSorted(out) {
				t.Fatalf("%v result not (pre, iter) sorted: %s", axis, pairsString(out))
			}
		}
	}
}

func TestAxisString(t *testing.T) {
	for _, a := range allAxes {
		if a.String() == "axis?" {
			t.Errorf("axis %d missing name", a)
		}
	}
}

func TestMergePairs(t *testing.T) {
	a := Pairs{Pre: []int32{1, 3, 5}, Iter: []int32{1, 1, 2}}
	b := Pairs{Pre: []int32{1, 4}, Iter: []int32{1, 1}}
	m := MergePairs(a, b)
	want := Pairs{Pre: []int32{1, 3, 4, 5}, Iter: []int32{1, 1, 1, 2}}
	if !pairsEqual(m, want) {
		t.Errorf("mergePairs = %s, want %s", pairsString(m), pairsString(want))
	}
}
