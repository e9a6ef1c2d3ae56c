package xqt

import (
	"math"
	"testing"
	"testing/quick"
)

func TestConstructorsAndAccessors(t *testing.T) {
	if Int(42).AsDouble() != 42 || Int(42).AsString() != "42" {
		t.Error("Int roundtrip")
	}
	if Double(2.5).AsString() != "2.5" {
		t.Errorf("Double format: %s", Double(2.5).AsString())
	}
	if Double(3).AsString() != "3" {
		t.Errorf("integral double format: %s", Double(3).AsString())
	}
	if Bool(true).I != 1 || Bool(false).I != 0 {
		t.Error("Bool")
	}
	if Str("x").AsString() != "x" || Untyped("y").AsString() != "y" {
		t.Error("strings")
	}
	n := Node(3, 17)
	if !n.IsNode() || n.Pre() != 17 || n.Cont != 3 {
		t.Error("Node")
	}
	a := Attr(2, 5)
	if !a.IsNode() || Int(1).IsNode() {
		t.Error("Attr")
	}
	if !Int(1).IsNumeric() || !Double(1).IsNumeric() || Str("1").IsNumeric() {
		t.Error("IsNumeric")
	}
}

func TestAsDoubleCasts(t *testing.T) {
	cases := []struct {
		in   Item
		want float64
	}{
		{Int(-7), -7},
		{Double(1.5), 1.5},
		{Str("2.25"), 2.25},
		{Untyped(" 10 "), 10},
		{Bool(true), 1},
	}
	for _, c := range cases {
		if got := c.in.AsDouble(); got != c.want {
			t.Errorf("AsDouble(%+v) = %v, want %v", c.in, got, c.want)
		}
	}
	if !math.IsNaN(Str("abc").AsDouble()) {
		t.Error("unparsable string must cast to NaN")
	}
}

func TestComparepromotion(t *testing.T) {
	cases := []struct {
		a, b Item
		op   CmpOp
		want bool
	}{
		{Int(2), Int(2), CmpEq, true},
		{Int(2), Double(2.0), CmpEq, true},
		{Untyped("10"), Int(10), CmpEq, true},      // untyped vs numeric: numeric
		{Untyped("10"), Untyped("9"), CmpLt, true}, // untyped vs untyped: string!
		{Str("a"), Str("b"), CmpLt, true},
		{Untyped("abc"), Int(1), CmpEq, false}, // NaN never equal
		{Untyped("abc"), Int(1), CmpNe, false}, // NaN never unequal either
		{Bool(true), Untyped("true"), CmpEq, true},
		{Int(3), Int(2), CmpGe, true},
		{Double(1.5), Int(2), CmpLe, true},
	}
	for _, c := range cases {
		if got := Compare(c.a, c.b, c.op); got != c.want {
			t.Errorf("Compare(%+v %v %+v) = %v, want %v", c.a, c.op, c.b, got, c.want)
		}
	}
}

// TestCompareTotalOnInts: on plain integers, Compare agrees with Go's
// comparison operators (property-based).
func TestCompareTotalOnInts(t *testing.T) {
	f := func(a, b int32) bool {
		x, y := Int(int64(a)), Int(int64(b))
		return Compare(x, y, CmpEq) == (a == b) &&
			Compare(x, y, CmpNe) == (a != b) &&
			Compare(x, y, CmpLt) == (a < b) &&
			Compare(x, y, CmpLe) == (a <= b) &&
			Compare(x, y, CmpGt) == (a > b) &&
			Compare(x, y, CmpGe) == (a >= b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestSwapConsistency: a op b == b op.Swap() a for all values and ops.
func TestSwapConsistency(t *testing.T) {
	ops := []CmpOp{CmpEq, CmpNe, CmpLt, CmpLe, CmpGt, CmpGe}
	f := func(a, b int16, opIdx uint8) bool {
		op := ops[int(opIdx)%len(ops)]
		x, y := Int(int64(a)), Int(int64(b))
		return Compare(x, y, op) == Compare(y, x, op.Swap())
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestSortLessStrictWeakOrder: SortLess is irreflexive, asymmetric and
// transitive over a mixed value domain (property-based).
func TestSortLessStrictWeakOrder(t *testing.T) {
	gen := func(k uint8, i int32, s uint8) Item {
		switch k % 5 {
		case 0:
			return Int(int64(i))
		case 1:
			return Double(float64(i) / 2)
		case 2:
			return Str(string(rune('a' + s%26)))
		case 3:
			return Bool(i%2 == 0)
		default:
			return Node(int32(k%3), i%100)
		}
	}
	f := func(k1, k2, k3 uint8, i1, i2, i3 int32, s1, s2, s3 uint8) bool {
		a, b, c := gen(k1, i1, s1), gen(k2, i2, s2), gen(k3, i3, s3)
		if SortLess(a, a) {
			return false // irreflexive
		}
		if SortLess(a, b) && SortLess(b, a) {
			return false // asymmetric
		}
		if SortLess(a, b) && SortLess(b, c) && !SortLess(a, c) {
			return false // transitive
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestFormatDoubleSpecials(t *testing.T) {
	cases := []struct {
		in   float64
		want string
	}{
		{math.Inf(1), "INF"},
		{math.Inf(-1), "-INF"},
		{math.NaN(), "NaN"},
		{3, "3"},
		{-3, "-3"},
		{2.5, "2.5"},
		{0, "0"},
		{1e16, "1e+16"},
	}
	for _, c := range cases {
		if got := FormatDouble(c.in); got != c.want {
			t.Errorf("FormatDouble(%v) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestRoundHalfTowardPositiveInfinity(t *testing.T) {
	cases := []struct{ in, want float64 }{
		{2.5, 3}, {-2.5, -2}, {2.4, 2}, {-2.6, -3}, {0.5, 1}, {-0.5, 0}, {7, 7},
	}
	for _, c := range cases {
		if got := Round(c.in); got != c.want {
			t.Errorf("Round(%v) = %v, want %v", c.in, got, c.want)
		}
	}
	if !math.IsNaN(Round(math.NaN())) {
		t.Error("Round(NaN) must be NaN")
	}
	if !math.IsInf(Round(math.Inf(1)), 1) || !math.IsInf(Round(math.Inf(-1)), -1) {
		t.Error("Round must pass infinities through")
	}
}

func TestLocalName(t *testing.T) {
	cases := []struct{ in, want string }{
		{"a", "a"}, {"ns:a", "a"}, {"urn:x:child", "child"}, {"", ""},
	}
	for _, c := range cases {
		if got := LocalName(c.in); got != c.want {
			t.Errorf("LocalName(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestEmptyLeastSortsFirst(t *testing.T) {
	others := []Item{Int(-1 << 60), Double(math.Inf(-1)), Str(""), Bool(false), Node(0, 0)}
	for _, o := range others {
		if !SortLess(EmptyLeast, o) {
			t.Errorf("EmptyLeast must sort before %+v", o)
		}
		if SortLess(o, EmptyLeast) {
			t.Errorf("%+v sorts before EmptyLeast", o)
		}
	}
}

func TestKindStrings(t *testing.T) {
	for k := KUntyped; k <= KAttr; k++ {
		if k.String() == "" {
			t.Errorf("kind %d has no name", k)
		}
	}
	for _, op := range []CmpOp{CmpEq, CmpNe, CmpLt, CmpLe, CmpGt, CmpGe} {
		if op.String() == "cmp?" {
			t.Errorf("op %d has no name", op)
		}
	}
}
