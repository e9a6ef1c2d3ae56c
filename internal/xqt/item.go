// Package xqt implements the XQuery data model used throughout the engine:
// polymorphic items (integers, doubles, strings, booleans, node references)
// together with the comparison, promotion and casting rules of the XQuery
// specification that the compiled relational plans rely on.
//
// An XQuery sequence is represented relationally as an iter|pos|item table
// (see internal/ralg); this package only defines the item domain.
package xqt

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"mxq/internal/xqerr"
)

// Kind discriminates the runtime type of an Item.
type Kind uint8

// Item kinds. KUntyped is the xs:untypedAtomic type that results from
// atomizing a node; it casts to double or string depending on the
// comparison partner, per the XQuery general comparison rules.
const (
	KUntyped Kind = iota // untyped atomic (string payload)
	KInt                 // xs:integer
	KDouble              // xs:double (also used for xs:decimal)
	KString              // xs:string
	KBool                // xs:boolean
	KNode                // reference to a tree node: (Cont, I=pre)
	KAttr                // reference to an attribute node: (Cont, I=attribute row)
)

func (k Kind) String() string {
	switch k {
	case KUntyped:
		return "untyped"
	case KInt:
		return "integer"
	case KDouble:
		return "double"
	case KString:
		return "string"
	case KBool:
		return "boolean"
	case KNode:
		return "node"
	case KAttr:
		return "attribute"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Item is a single XQuery item. The item columns of the relational
// sequence encoding hold values of this type (stored as typed vectors,
// see ralg.ItemVec). Which fields are meaningful depends on K:
//
//	KInt:     I
//	KDouble:  F
//	KString:  S
//	KUntyped: S
//	KBool:    I (0 or 1)
//	KNode:    Cont (container id), I (preorder rank)
//	KAttr:    Cont (container id), I (attribute table row)
//
// The engine relies on the fields *not* listed for a kind being zero:
// items round-trip through per-kind payload vectors that store only the
// listed fields, and item equality is struct equality. Always build
// items through the constructors below.
type Item struct {
	K    Kind
	Cont int32
	I    int64
	F    float64
	S    string
}

// Convenience constructors.

// Int returns an xs:integer item.
func Int(v int64) Item { return Item{K: KInt, I: v} }

// Double returns an xs:double item.
func Double(v float64) Item { return Item{K: KDouble, F: v} }

// Str returns an xs:string item.
func Str(s string) Item { return Item{K: KString, S: s} }

// Untyped returns an xs:untypedAtomic item (node atomization result).
func Untyped(s string) Item { return Item{K: KUntyped, S: s} }

// Bool returns an xs:boolean item.
func Bool(b bool) Item {
	if b {
		return Item{K: KBool, I: 1}
	}
	return Item{K: KBool, I: 0}
}

// Node returns a node reference item.
func Node(cont int32, pre int32) Item { return Item{K: KNode, Cont: cont, I: int64(pre)} }

// Attr returns an attribute node reference item.
func Attr(cont int32, row int32) Item { return Item{K: KAttr, Cont: cont, I: int64(row)} }

// IsNode reports whether the item references a tree or attribute node.
func (it Item) IsNode() bool { return it.K == KNode || it.K == KAttr }

// IsNumeric reports whether the item is an xs:integer or xs:double.
func (it Item) IsNumeric() bool { return it.K == KInt || it.K == KDouble }

// Same reports whether two items are one value, telling apart what
// prints apart: every NaN is one value, and -0 is not 0.
func (it Item) Same(o Item) bool {
	if math.IsNaN(it.F) && math.IsNaN(o.F) {
		it.F, o.F = 0, 0
	}
	return it == o && math.Signbit(it.F) == math.Signbit(o.F)
}

// Pre returns the preorder rank of a KNode item.
func (it Item) Pre() int32 { return int32(it.I) }

// AsDouble converts the item to xs:double following the XQuery casting
// rules. Untyped and string payloads are parsed; unparsable input yields
// NaN (the engine treats NaN like the XQuery dynamic error FORG0001 would
// behave in comparisons: every comparison is false).
func (it Item) AsDouble() float64 {
	switch it.K {
	case KInt:
		return float64(it.I)
	case KDouble:
		return it.F
	case KBool:
		return float64(it.I)
	case KString, KUntyped:
		return ParseDouble(it.S)
	}
	return math.NaN()
}

// IntegerArg converts an atomized operand to xs:integer by the function
// conversion rules (a range bound, say): an xs:integer is taken as it
// is, an xs:untypedAtomic is cast (FORG0001 when it spells no integer),
// and any other kind is the type error XPTY0004.
func IntegerArg(it Item) (int64, error) {
	switch it.K {
	case KInt:
		return it.I, nil
	case KUntyped:
		v, err := strconv.ParseInt(strings.TrimSpace(it.S), 10, 64)
		if err != nil {
			return 0, xqerr.Newf("FORG0001", "cannot cast %q to xs:integer", it.S)
		}
		return v, nil
	}
	return 0, xqerr.Newf("XPTY0004", "an xs:%s where an xs:integer is expected", it.K)
}

// ParseDouble casts a string to xs:double per the item casting rules:
// surrounding whitespace is ignored, and what is not in xs:double's
// lexical space (XML Schema 1.0 §3.2.5: an optionally signed decimal
// mantissa with an optional exponent, INF, -INF or NaN) yields NaN. Past
// the special values that space is what strconv.ParseFloat accepts
// spelled with digits, a point, signs and e or E alone — which shuts out
// its other spellings, "inf", "Infinity", "+INF", "0x1p4" and "1_0".
func ParseDouble(s string) float64 {
	s = strings.Trim(s, " \t\r\n")
	switch s {
	case "INF":
		return math.Inf(1)
	case "-INF":
		return math.Inf(-1)
	}
	f, err := strconv.ParseFloat(s, 64)
	if err != nil || strings.ContainsFunc(s, func(r rune) bool { return !strings.ContainsRune("0123456789.+-eE", r) }) {
		return math.NaN()
	}
	return f
}

// AsString converts an atomic item to its string representation (xs:string
// cast). Node items cannot be converted here; atomize them first.
func (it Item) AsString() string {
	switch it.K {
	case KString, KUntyped:
		return it.S
	case KInt:
		return strconv.FormatInt(it.I, 10)
	case KDouble:
		return FormatDouble(it.F)
	case KBool:
		if it.I != 0 {
			return "true"
		}
		return "false"
	}
	return ""
}

// FormatDouble renders a float the way XQuery serializes xs:double values
// that have no exponent: integral values print without a decimal point,
// negative zero as -0, and the special values as INF, -INF and NaN (XPath spec
// casting of xs:double to xs:string, not Go's +Inf/-Inf spellings).
func FormatDouble(f float64) string {
	switch {
	case math.IsInf(f, 1):
		return "INF"
	case math.IsInf(f, -1):
		return "-INF"
	case math.IsNaN(f):
		return "NaN"
	case f == 0 && math.Signbit(f):
		return "-0" // F&O 17.1.2: negative zero keeps its sign
	}
	if f == math.Trunc(f) && math.Abs(f) < 1e15 {
		return strconv.FormatInt(int64(f), 10)
	}
	return strconv.FormatFloat(f, 'g', -1, 64)
}

// Round implements fn:round's half-toward-positive-infinity rule:
// round(2.5) is 3 but round(-2.5) is -2 (unlike Go's math.Round, which
// rounds halves away from zero). NaN and the infinities pass through.
func Round(f float64) float64 {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return f
	}
	return math.Floor(f + 0.5)
}

// LocalName returns the local part of a qualified name: everything after
// the last colon (fn:local-name over our prefix:local name encoding).
func LocalName(qname string) string {
	if i := strings.LastIndexByte(qname, ':'); i >= 0 {
		return qname[i+1:]
	}
	return qname
}

// CmpOp identifies a comparison operator.
type CmpOp uint8

// Comparison operators (shared by value and general comparisons).
const (
	CmpEq CmpOp = iota
	CmpNe
	CmpLt
	CmpLe
	CmpGt
	CmpGe
)

func (op CmpOp) String() string {
	switch op {
	case CmpEq:
		return "eq"
	case CmpNe:
		return "ne"
	case CmpLt:
		return "lt"
	case CmpLe:
		return "le"
	case CmpGt:
		return "gt"
	case CmpGe:
		return "ge"
	}
	return "cmp?"
}

// Swap returns the operator with its operands exchanged (a op b == b op.Swap a).
func (op CmpOp) Swap() CmpOp {
	switch op {
	case CmpLt:
		return CmpGt
	case CmpLe:
		return CmpGe
	case CmpGt:
		return CmpLt
	case CmpGe:
		return CmpLe
	}
	return op
}

// Compare applies a general-comparison style value test between two atomic
// items, performing the XQuery type promotion rules:
//
//   - if either operand is numeric, both are promoted to xs:double
//     (untypedAtomic casts to double);
//   - untypedAtomic compared with string (or untyped) compares as strings;
//   - booleans compare as booleans.
//
// NaN (unparsable numeric cast) makes every comparison false, mirroring the
// IEEE semantics XQuery adopts for xs:double.
func Compare(a, b Item, op CmpOp) bool {
	if a.K == KBool || b.K == KBool {
		av, bv := a.I, b.I
		if a.K != KBool {
			av = boolAsInt(a)
		}
		if b.K != KBool {
			bv = boolAsInt(b)
		}
		return cmpInt(av, bv, op)
	}
	if a.IsNumeric() || b.IsNumeric() {
		if a.K == KInt && b.K == KInt {
			return cmpInt(a.I, b.I, op)
		}
		return cmpFloat(a.AsDouble(), b.AsDouble(), op)
	}
	// string / untyped territory
	return cmpStr(a.AsString(), b.AsString(), op)
}

// CompareInt applies op to two xs:integer (or xs:boolean) payloads; the
// typed-vector kernels use it to compare whole columns without boxing.
func CompareInt(a, b int64, op CmpOp) bool { return cmpInt(a, b, op) }

// CompareFloat applies op to two xs:double values with IEEE NaN
// semantics (NaN compares false under every operator, including ne when
// the other side is NaN too — matching Compare on items).
func CompareFloat(a, b float64, op CmpOp) bool { return cmpFloat(a, b, op) }

// CompareString applies op to two strings (codepoint collation).
func CompareString(a, b string, op CmpOp) bool { return cmpStr(a, b, op) }

func boolAsInt(a Item) int64 {
	// effective boolean cast of a non-boolean compared against a boolean:
	// XQuery casts untyped to boolean; we accept "true"/"false"/"1"/"0".
	switch strings.TrimSpace(a.AsString()) {
	case "true", "1":
		return 1
	default:
		return 0
	}
}

func cmpInt(a, b int64, op CmpOp) bool {
	switch op {
	case CmpEq:
		return a == b
	case CmpNe:
		return a != b
	case CmpLt:
		return a < b
	case CmpLe:
		return a <= b
	case CmpGt:
		return a > b
	case CmpGe:
		return a >= b
	}
	return false
}

func cmpFloat(a, b float64, op CmpOp) bool {
	switch op {
	case CmpEq:
		return a == b
	case CmpNe:
		return a != b && !math.IsNaN(a) && !math.IsNaN(b)
	case CmpLt:
		return a < b
	case CmpLe:
		return a <= b
	case CmpGt:
		return a > b
	case CmpGe:
		return a >= b
	}
	return false
}

func cmpStr(a, b string, op CmpOp) bool {
	c := strings.Compare(a, b)
	switch op {
	case CmpEq:
		return c == 0
	case CmpNe:
		return c != 0
	case CmpLt:
		return c < 0
	case CmpLe:
		return c <= 0
	case CmpGt:
		return c > 0
	case CmpGe:
		return c >= 0
	}
	return false
}

// SortLess is a total order over items used for order-by clauses:
// numbers numerically with NaN below every number, strings
// lexicographically, mixed kinds by a fixed kind rank, and the EmptyLeast
// key before everything. Nodes sort by container, then I (an element
// before an attribute at the same I): document order only among nodes of
// one kind, which ralg's order checks, its one caller for nodes, require.
func SortLess(a, b Item) bool {
	ra, rb := sortRank(a), sortRank(b)
	if ra != rb {
		return ra < rb
	}
	switch ra {
	case RankEmpty:
		return false
	case RankNumeric:
		af, bf := a.AsDouble(), b.AsDouble()
		return af < bf || af != af && bf == bf
	case RankString:
		return a.AsString() < b.AsString()
	case RankBool:
		return a.I < b.I
	default: // nodes
		if a.Cont != b.Cont {
			return a.Cont < b.Cont
		}
		if a.K != b.K && a.I == b.I {
			// element before its attributes at the same pre
			return a.K == KNode
		}
		return a.I < b.I
	}
}

// The sort ranks: SortLess orders items of different ranks by rank.
const (
	RankEmpty   = iota // the EmptyLeast sentinel
	RankNumeric        // xs:integer, xs:double
	RankString         // xs:string, xs:untypedAtomic
	RankBool
	RankNode // tree and attribute nodes
)

// KindRank is the sort rank of items of kind k (the EmptyLeast sentinel,
// an xs:untypedAtomic, ranks RankEmpty instead).
func KindRank(k Kind) int {
	switch k {
	case KInt, KDouble:
		return RankNumeric
	case KUntyped, KString:
		return RankString
	case KBool:
		return RankBool
	}
	return RankNode
}

// EmptyLeast is the sort key used for "order by" keys over empty sequences
// (XQuery's default "empty least" behaviour). It sorts before every other
// item. It is recognized by its sentinel string payload (which cannot
// occur in parsed XML: NUL is not an XML character), so it survives the
// typed-vector column representation, which stores only the S payload for
// untyped items.
var EmptyLeast = Item{K: KUntyped, S: "\x00emptyleast"}

// IsEmptyLeast reports whether the item is the EmptyLeast sort sentinel.
func IsEmptyLeast(a Item) bool {
	return a.K == KUntyped && a.S == EmptyLeast.S
}

func sortRank(a Item) int {
	if IsEmptyLeast(a) {
		return RankEmpty
	}
	return KindRank(a.K)
}
