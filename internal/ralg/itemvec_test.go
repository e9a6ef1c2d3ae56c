package ralg

import (
	"math/rand"
	"reflect"
	"testing"

	"mxq/internal/xqt"
)

func randItem(rng *rand.Rand) xqt.Item {
	switch rng.Intn(7) {
	case 0:
		return xqt.Int(int64(rng.Intn(100) - 50))
	case 1:
		return xqt.Double(float64(rng.Intn(100)) / 4)
	case 2:
		return xqt.Str(string(rune('a' + rng.Intn(26))))
	case 3:
		return xqt.Untyped(string(rune('A' + rng.Intn(26))))
	case 4:
		return xqt.Bool(rng.Intn(2) == 0)
	case 5:
		return xqt.Node(int32(rng.Intn(3)), int32(rng.Intn(1000)))
	default:
		return xqt.Attr(int32(rng.Intn(3)), int32(rng.Intn(100)))
	}
}

// TestItemVecRoundTrip: any item sequence survives the typed-vector
// representation exactly (At, Slice, Append agree with the source).
func TestItemVecRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		n := rng.Intn(40)
		items := make([]xqt.Item, n)
		for i := range items {
			items[i] = randItem(rng)
		}
		v := NewItemVec(items)
		if v.Len() != n {
			t.Fatalf("Len = %d, want %d", v.Len(), n)
		}
		for i, want := range items {
			if got := v.At(i); got != want {
				t.Fatalf("trial %d row %d: At = %+v, want %+v", trial, i, got, want)
			}
			if v.KindAt(i) != want.K {
				t.Fatalf("KindAt(%d) = %v, want %v", i, v.KindAt(i), want.K)
			}
		}
		for i, got := range v.Slice() {
			if got != items[i] {
				t.Fatalf("Slice[%d] = %+v, want %+v", i, got, items[i])
			}
		}
	}
}

// TestItemVecUniformDetection: single-kind sequences keep the uniform
// representation (no tag vector), mixed ones do not.
func TestItemVecUniformDetection(t *testing.T) {
	u := ItemsOf(xqt.Int(1), xqt.Int(2), xqt.Int(3))
	if k, ok := u.Uniform(); !ok || k != xqt.KInt {
		t.Errorf("int column: Uniform = (%v, %v)", k, ok)
	}
	if u.Tags != nil {
		t.Error("uniform column materialized a tag vector")
	}
	m := ItemsOf(xqt.Int(1), xqt.Str("x"))
	if _, ok := m.Uniform(); ok {
		t.Error("mixed column reported uniform")
	}
	if got := m.At(0); got != xqt.Int(1) {
		t.Errorf("mixed At(0) = %+v", got)
	}
	if got := m.At(1); got != xqt.Str("x") {
		t.Errorf("mixed At(1) = %+v", got)
	}
	// going mixed after a uniform prefix backfills the tags
	u.Append(xqt.Double(2.5))
	if _, ok := u.Uniform(); ok {
		t.Error("column stayed uniform after a foreign append")
	}
	want := []xqt.Item{xqt.Int(1), xqt.Int(2), xqt.Int(3), xqt.Double(2.5)}
	for i, w := range want {
		if u.At(i) != w {
			t.Errorf("row %d = %+v, want %+v", i, u.At(i), w)
		}
	}
}

// TestItemVecAppendVecAndGather: concatenation and gathering preserve
// values for every uniform/mixed combination.
func TestItemVecAppendVecAndGather(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	mk := func(uniform bool, n int) ([]xqt.Item, ItemVec) {
		items := make([]xqt.Item, n)
		for i := range items {
			if uniform {
				items[i] = xqt.Int(int64(i))
			} else {
				items[i] = randItem(rng)
			}
		}
		return items, NewItemVec(items)
	}
	for _, du := range []bool{true, false} {
		for _, su := range []bool{true, false} {
			dItems, dst := mk(du, 5)
			sItems, src := mk(su, 7)
			dst.AppendVec(&src)
			all := append(append([]xqt.Item(nil), dItems...), sItems...)
			if dst.Len() != len(all) {
				t.Fatalf("AppendVec length %d, want %d", dst.Len(), len(all))
			}
			for i, w := range all {
				if dst.At(i) != w {
					t.Fatalf("du=%v su=%v row %d: %+v want %+v", du, su, i, dst.At(i), w)
				}
			}
			idx := []int32{11, 0, 3, 3, 9}
			g := dst.gatherIn(nil, outRegion, idx)
			for i, j := range idx {
				if g.At(i) != all[j] {
					t.Fatalf("gather row %d: %+v want %+v", i, g.At(i), all[j])
				}
			}
		}
	}
}

// TestUniformVecRows: a bulk-sized node vector is writable through the
// raw payload vectors (the Step output path), carries only the payloads
// its kind uses, and stays intact when a foreign kind is appended.
func TestUniformVecRows(t *testing.T) {
	v := new(Exec).uniformVec(xqt.KNode, 4)
	if v.F != nil || v.S != nil || len(v.Cont) != 4 || cap(v.I) != 4 {
		t.Fatalf("node vector payloads: %+v", v)
	}
	want := []xqt.Item{xqt.Node(1, 7), xqt.Node(2, 10), xqt.Node(2, 11), xqt.Node(2, 12)}
	for k, w := range want {
		v.Cont[k], v.I[k] = w.Cont, w.I
	}
	if k, ok := v.Uniform(); !ok || k != xqt.KNode {
		t.Fatalf("node column not uniform: (%v, %v)", k, ok)
	}
	v.Append(xqt.Untyped("tail"))
	if _, ok := v.Uniform(); ok {
		t.Error("column stayed uniform after appending a foreign kind")
	}
	for i, w := range append(want, xqt.Untyped("tail")) {
		if v.At(i) != w {
			t.Errorf("row %d = %+v, want %+v", i, v.At(i), w)
		}
	}
}

// TestItemVecEmptyLeast: the order-by empty-sequence sentinel survives
// the vector representation and still ranks before every value.
func TestItemVecEmptyLeast(t *testing.T) {
	v := ItemsOf(xqt.EmptyLeast, xqt.Int(-1<<60))
	a, b := v.At(0), v.At(1)
	if !xqt.IsEmptyLeast(a) {
		t.Fatalf("EmptyLeast did not round-trip: %+v", a)
	}
	if !xqt.SortLess(a, b) || xqt.SortLess(b, a) {
		t.Error("EmptyLeast must sort before any value after the round-trip")
	}
}

// demote returns a copy of v with the tag vector materialized: the same
// values in the representation a mixed column has (the split-by-tag step
// finds one group and runs it zero-copy).
func demote(v ItemVec) ItemVec {
	out := v
	out.Tags = make([]xqt.Kind, v.Len())
	for i := range out.Tags {
		out.Tags[i] = v.Tag
	}
	return out
}

// Every Bind* constructor copies its argument: a binding never aliases
// a slice its caller still owns (vectors are immutable once built).
func TestBindCopiesArgument(t *testing.T) {
	ints, floats, strs := []int64{1, 2}, []float64{1.5, 2.5}, []string{"a", "b"}
	bools, items := []bool{true, false}, []xqt.Item{xqt.Int(1), xqt.Str("x")}
	vecs := []ItemVec{BindInts(ints...), BindFloats(floats...), BindStrings(strs...), BindBools(bools...), BindItems(items...)}
	var want [][]xqt.Item
	for i := range vecs {
		want = append(want, vecs[i].Slice())
	}
	ints[0], floats[0], strs[0], bools[0], items[0] = 9, 9.5, "z", false, xqt.Str("z")
	for i := range vecs {
		if got := vecs[i].Slice(); !reflect.DeepEqual(got, want[i]) {
			t.Errorf("binding %d changed with its caller's slice: %v, was %v", i, got, want[i])
		}
	}
}
