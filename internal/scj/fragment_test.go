package scj

import (
	"fmt"
	"testing"

	"mxq/internal/store"
)

// twoFragContainer builds a container holding two document fragments —
// the shape of a multi-document shard — each <a><b/><c/></a>:
//
//	pre: 0=doc 1=a 2=b 3=c | 4=doc 5=a 6=b 7=c
func twoFragContainer(t *testing.T) *store.Container {
	t.Helper()
	b := store.NewBuilder("frags")
	for i := 0; i < 2; i++ {
		b.StartDoc()
		b.StartElem("a")
		b.StartElem("b")
		b.End()
		b.StartElem("c")
		b.End()
		b.End()
		b.End()
	}
	c, err := b.Done()
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestFollowingPrecedingStayInFragment: the following/preceding axes
// must not cross fragment (document) boundaries inside a multi-fragment
// container — XPath defines them within one tree only, and the naive
// oracle evaluates them per document.
func TestFollowingPrecedingStayInFragment(t *testing.T) {
	c := twoFragContainer(t)
	elem := Test{Kind: TestElem}
	for _, v := range []Variant{LoopLifted, Iterative} {
		// following of b in fragment 0: only c of fragment 0 (pre 3);
		// a leak would add fragment 1's a/b/c (pres 5,6,7)
		out := Step(c, Pairs{Pre: []int32{2}, Iter: []int32{1}}, Following, elem, v, nil)
		if fmt.Sprint(out.Pre) != "[3]" {
			t.Errorf("variant %d: following(b@2) = %v, want [3]", v, out.Pre)
		}
		// preceding of b in fragment 1: empty (a@5 and doc@4 are
		// ancestors); a leak would surface fragment 0's elements
		out = Step(c, Pairs{Pre: []int32{6}, Iter: []int32{1}}, Preceding, elem, v, nil)
		if out.Len() != 0 {
			t.Errorf("variant %d: preceding(b@6) = %v, want empty", v, out.Pre)
		}
		// preceding of c in fragment 1: b of fragment 1 only
		out = Step(c, Pairs{Pre: []int32{7}, Iter: []int32{1}}, Preceding, elem, v, nil)
		if fmt.Sprint(out.Pre) != "[6]" {
			t.Errorf("variant %d: preceding(c@7) = %v, want [6]", v, out.Pre)
		}
	}
	// contexts in both fragments at once, distinct iterations: each
	// iteration's result stays inside its fragment
	ctx := Pairs{Pre: []int32{2, 6}, Iter: []int32{1, 2}}
	out := Step(c, ctx, Following, elem, LoopLifted, nil)
	if fmt.Sprint(out.Pre) != "[3 7]" || fmt.Sprint(out.Iter) != "[1 2]" {
		t.Errorf("two-fragment following = %v/%v, want [3 7]/[1 2]", out.Pre, out.Iter)
	}
}
