package mxq_test

import (
	"fmt"
	"strings"
	"testing"

	"mxq"
	"mxq/internal/naive"
	"mxq/internal/xqt"
)

// The spec-conformance suite checks XPath/XQuery function semantics
// against expected values hard-coded from the spec — deliberately NOT
// differentially: the relational engine and the naive DOM interpreter
// historically shared identical spec bugs (round half-away-from-zero,
// byte-counted string-length, Go-spelled infinities), which a
// differential oracle is structurally blind to. Every case runs against
// both engines independently.

const specDoc = `<root><a><ns:child xmlns:ns="urn:x">h&#233;llo</ns:child></a><b><plain>text</plain></b><m><n x="4">2</n><o y="q">t</o></m></root>`

// specCases hold (query, expected serialization); a want of the form
// "err:CODE" expects the query to fail with that error code. Expected
// values come from the XPath 2.0 / XQuery 1.0 function specs, not from
// either engine.
var specCases = []struct {
	name  string
	query string
	want  string
}{
	// fn:round — halves round toward positive infinity (XPath F&O 6.4.4:
	// round(-2.5) is -2, NOT -3).
	{"round-positive-half", `round(2.5)`, "3"},
	{"round-negative-half", `round(-2.5)`, "-2"},
	{"round-negative-below-half", `round(-2.51)`, "-3"},
	{"round-negative-above-half", `round(-2.4999)`, "-2"},
	{"round-positive", `round(7.2)`, "7"},
	{"round-integer", `round(5)`, "5"},
	{"round-negative-int-half", `round(-7.5)`, "-7"},

	// fn:floor / fn:ceiling (F&O 6.4.1, 6.4.2).
	{"floor-negative", `floor(-1.5)`, "-2"},
	{"floor-positive", `floor(1.5)`, "1"},
	{"ceiling-negative", `ceiling(-1.5)`, "-1"},
	{"ceiling-positive", `ceiling(1.5)`, "2"},

	// fn:string-length counts characters, not bytes (F&O 7.4.4):
	// "héllo" is 5 characters (6 UTF-8 bytes).
	{"string-length-ascii", `string-length("abcd")`, "4"},
	{"string-length-multibyte", `string-length("héllo")`, "5"},
	{"string-length-empty", `string-length("")`, "0"},
	{"string-length-node", `string-length(string(/root/a/*))`, "5"},

	// xs:double serialization of the special values (XPath casting to
	// xs:string): INF / -INF / NaN, not Go's +Inf spellings.
	{"serialize-inf", `string(2 div 0)`, "INF"},
	{"serialize-neg-inf", `string(-2 div 0)`, "-INF"},
	{"serialize-nan", `string(0 div 0)`, "NaN"},
	{"serialize-inf-value", `2 div 0`, "INF"},
	{"integral-double", `string(3.0)`, "3"},
	{"fractional-double", `string(2.5)`, "2.5"},

	// fn:local-name strips the namespace prefix (F&O 2.2); fn:name keeps
	// the qualified form.
	{"local-name-prefixed", `local-name(/root/a/*)`, "child"},
	{"local-name-plain", `local-name(/root/b/*)`, "plain"},
	{"local-name-empty", `local-name(())`, ""},

	// fn:distinct-values (F&O 15.1.6): numeric values compare across
	// numeric types (1 eq 1.0), while values no eq operator relates —
	// integer vs boolean, number vs string — stay distinct.
	{"distinct-int-double", `distinct-values((1, 1.0))`, "1"},
	{"distinct-int-bool", `distinct-values((1, true()))`, "1 true"},
	{"distinct-num-string", `distinct-values((1, "1"))`, "1 1"},
	{"distinct-strings", `distinct-values(("a", "b", "a"))`, "a b"},
	{"distinct-order", `distinct-values((2, 1, 2.0, 1.0, 3))`, "2 1 3"},

	// arithmetic promotion sanity around the special values
	{"nan-never-equal", `(0 div 0) = (0 div 0)`, "false"},
	{"inf-compares", `(1 div 0) > 1e300`, "true"},

	// a general comparison with an xs:boolean operand casts the other
	// operand to xs:boolean ("1" and "true" are true, "0" is false); the
	// join-recognized plan (an existential join over the two for
	// ranges) must agree with the nested-loop plan and with the oracle
	{"bool-join-casts-strings",
		`for $x in ("1","true","0") for $y in (true(), false()) where $x = $y return <r>{$x}</r>`,
		"<r>1</r><r>true</r><r>0</r>"},
	{"bool-join-ordering",
		`for $x in ("1","true","0") for $y in (true(), false()) where $x > $y return <r>{$x}</r>`,
		"<r>1</r><r>true</r>"},

	// op:numeric-integer-divide and op:numeric-mod (F&O 6.2.5, 6.2.6): a
	// zero divisor is FOAR0001 for idiv on any numeric type and for
	// integer mod; a NaN operand or an infinite dividend (or a quotient
	// past xs:integer) is FOAR0002; an infinite divisor gives 0; xs:double
	// mod 0 is NaN
	{"idiv-int-zero", `1 idiv 0`, "err:FOAR0001"},
	{"mod-int-zero", `1 mod 0`, "err:FOAR0001"},
	{"idiv-double-zero", `2.5 idiv 0`, "err:FOAR0001"},
	{"idiv-untyped-zero", `/root/m/n idiv 0`, "err:FOAR0001"},
	{"idiv-nan", `(0 div 0) idiv 1`, "err:FOAR0002"},
	{"idiv-nan-divisor", `1 idiv number("x")`, "err:FOAR0002"},
	{"idiv-inf-dividend", `(1 div 0) idiv 1`, "err:FOAR0002"},
	{"idiv-overflow", `1e300 idiv 1`, "err:FOAR0002"},
	{"idiv-inf-divisor", `7 idiv (1 div 0)`, "0"},
	{"mod-double-zero", `2.5 mod 0`, "NaN"},
	{"idiv-truncates", `(7 idiv 2, (0 - 7) idiv 2, 7.5 idiv 2, 7 idiv 0.5)`, "3 -3 3 14"},
	{"mod-sign", `(7 mod 3, (0 - 7) mod 3, 7.5 mod 2)`, "1 -1 1.5"},
	{"idiv-guarded", `for $y in (0, 2) return if ($y = 0) then 0 else 8 idiv $y`, "0 4"},
	{"idiv-mixed-zero", `for $y in (2, 0.5, 0) return 8 idiv $y`, "err:FOAR0001"},

	// sequences that mix item kinds in one column: every row gets its own
	// kind's semantics (integer stays integer, untyped and string cast)
	{"mixed-add", `for $v in (1, 2.5, "3") return $v + 1`, "2 3.5 4"},
	{"mixed-idiv", `for $v in (7, 7.5, "9") return $v idiv 2`, "3 3 4"},
	{"mixed-neg", `for $v in (1, 2.5, /root/m/n) return -$v`, "-1 -2.5 -2"},
	{"mixed-string", `for $v in (1, 2.5, "3", true(), /root/m/n/@x) return string($v)`, "1 2.5 3 true 4"},
	{"mixed-number", `for $v in (/root/m/n, /root/m/n/@x, 7, "x") return number($v)`, "2 4 7 NaN"},
	{"mixed-compare", `for $v in (/root/m/n, 2, "2", 2.0, true()) return $v = 2`, "true true true true false"},
	{"mixed-compare-string", `for $v in (/root/m/o, "t", 2) return $v = "t"`, "true true false"},
	{"mixed-concat", `for $v in (1, "b", /root/m/o/@y, 2.5) return concat($v, "-")`, "1- b- q- 2.5-"},
	{"mixed-name", `for $v in (/root/m/n, /root/m/n/@x, /root/m/o) return name($v)`, "n x o"},
	{"mixed-name-atom", `for $v in (/root/m/n, /root/m/n/@x, 7) return name($v)`, "err:XPTY0004"},
	{"mixed-data", `for $v in (/root/m/n, /root/m/n/@x, 7, "s") return data($v)`, "2 4 7 s"},
	{"mixed-boolean", `for $v in (/root/m/n, 0, "", "a", 0.5) return boolean($v)`, "true false false true true"},

	// node comparisons order attributes right after their owner element
	{"node-before-mixed", `for $v in (/root/m/n, /root/m/n/@x, /root/m/o, /root/m/o/@y) return $v << /root/m/o`,
		"true true false false"},
	{"node-after-mixed", `for $v in (/root/m/n, /root/m/n/@x, /root/m/o, /root/m/o/@y) return $v >> /root/m/n/@x`,
		"false false true true"},
	{"node-is-mixed", `for $v in (/root/m/n, /root/m/n/@x, /root/m/o) return $v is /root/m/n/@x`, "false true false"},
	{"node-before-atom", `7 << 8`, "err:XPTY0004"},

	// order by (XQuery 1.0 §3.8.3): the empty key, then NaN, then the
	// numbers; descending reverses all of it
	{"order-by-nan", `for $x in (3, number("x"), 1, 2) order by $x return $x`, "NaN 1 2 3"},
	{"order-by-nan-descending", `for $x in (3, number("x"), 1, 2) order by $x descending return $x`, "3 2 1 NaN"},

	// fn:min / fn:max (F&O 15.4.3, 15.4.4): NaN wins; xs:untypedAtomic
	// compares as xs:double; values with no common type are FORG0006
	{"min-nan", `min((3, number("x"), 1))`, "NaN"},
	{"max-nan", `max((3, number("x"), 1))`, "NaN"},
	{"min-untyped", `min(doc("p.xml")//p)`, "9"},
	{"max-untyped-and-integer", `max((doc("p.xml")//p/text(), 50))`, "100"},
	{"min-no-common-type", `min((3, "a"))`, "err:FORG0006"},

	// a general comparison is existential (XQuery 1.0 §3.5.2): a NaN
	// item compares false, and the other items still decide
	{"general-gt-nan-item", `doc("p2.xml")//p > 5`, "true"},
	{"general-lt-nan-item", `doc("p2.xml")//p < 50`, "true"},
	{"general-gt-nan-item-none", `doc("p2.xml")//p > 50`, "false"},

	// document order puts an attribute after its owner element and
	// before the owner's children
	{"union-attribute-order", `for $n in (doc("attrs.xml")//@id | doc("attrs.xml")//a | doc("attrs.xml")//@x | doc("attrs.xml")//d) return name($n)`,
		"a x id id d"},

	// an attribute's ancestors are its owner element's ancestors-or-self
	// (XPath 2.0 §3.2.1.1: the owner is the attribute's parent)
	{"attribute-ancestors", `count(doc("attrs.xml")//@id/ancestor::*)`, "4"},
	{"attribute-ancestor-or-self", `for $n in doc("attrs.xml")//b/@id/ancestor-or-self::node() return name($n)`, " r a b id"},

	// a reverse axis numbers its step results in reverse document order
	// (XPath 2.0 §3.2.2): [1] is the nearest node, [last()] the farthest,
	// from elements and from attributes alike; the step's result is still
	// returned in document order
	{"ancestor-first", `name(doc("rev.xml")//d/ancestor::*[1])`, "c"},
	{"ancestor-last", `name(doc("rev.xml")//d/ancestor::*[last()])`, "r"},
	{"ancestor-or-self-first", `name(doc("rev.xml")//d/ancestor-or-self::*[1])`, "d"},
	{"ancestor-or-self-last", `name(doc("rev.xml")//d/ancestor-or-self::*[last()])`, "r"},
	{"preceding-first", `name(doc("rev.xml")//e/preceding::*[1])`, "d"},
	{"preceding-last", `name(doc("rev.xml")//e/preceding::*[last()])`, "b"},
	{"preceding-sibling-first", `name(doc("rev.xml")//e/preceding-sibling::*[1])`, "c"},
	{"preceding-sibling-last", `name(doc("rev.xml")//e/preceding-sibling::*[last()])`, "b"},
	{"attribute-ancestor-first", `name(doc("rev.xml")//e/@id/ancestor::*[1])`, "e"},
	{"attribute-ancestor-last", `name(doc("rev.xml")//e/@id/ancestor::*[last()])`, "r"},
	{"attribute-ancestor-or-self-first", `name(doc("rev.xml")//e/@id/ancestor-or-self::node()[1])`, "id"},
	{"attribute-ancestor-or-self-last", `name(doc("rev.xml")//e/@id/ancestor-or-self::node()[last()]/*)`, "r"},
	{"attribute-preceding-first", `name(doc("rev.xml")//e/@id/preceding::*[1])`, "d"},
	{"attribute-preceding-last", `name(doc("rev.xml")//e/@id/preceding::*[last()])`, "b"},
	{"attribute-preceding-sibling-first", `count(doc("rev.xml")//e/@id/preceding-sibling::node()[1])`, "0"},
	{"attribute-preceding-sibling-last", `count(doc("rev.xml")//e/@id/preceding-sibling::node()[last()])`, "0"},
	{"ancestor-first-per-context", `for $n in doc("rev.xml")//*/ancestor::*[1] return name($n)`, "r a c"},
	{"preceding-sibling-first-per-context", `for $n in doc("rev.xml")//*/preceding-sibling::*[1] return name($n)`, "a b c"},
	// positions over one context node per iteration, the result still
	// in document order; a predicate that cannot see position filters
	// the step's result, at the end of a path and in its middle
	{"for-ancestor-first-two", `for $x in doc("rev.xml")//d return for $n in $x/ancestor::*[position() <= 2] return name($n)`, "a c"},
	{"for-preceding-first-two", `for $x in doc("rev.xml")//e return for $n in $x/preceding::*[position() < 3] return name($n)`, "c d"},
	{"for-ancestor-last", `for $x in doc("rev.xml")//d return name($x/ancestor::*[last()])`, "r"},
	{"preceding-sibling-selected", `for $n in doc("rev.xml")//e/preceding-sibling::*[@id] return name($n)`, "c"},
	{"selection-mid-path", `count(doc("rev.xml")/r/a/c[@id]/d)`, "1"},

	// the attribute axis's node tests (XPath 2.0 §3.2.1.2): a name
	// test, * and node() select attributes, any other kind test none
	{"attribute-node", `count(doc("rev.xml")//c/attribute::node())`, "1"},
	{"attribute-star", `count(doc("rev.xml")//c/@*)`, "1"},
	{"attribute-text", `count(doc("rev.xml")//c/attribute::text())`, "0"},
	{"attribute-comment", `count(doc("rev.xml")//c/attribute::comment())`, "0"},
	{"attribute-pi", `count(doc("rev.xml")//c/attribute::processing-instruction())`, "0"},

	// fn:count over a FLWOR that returns its for variable is 0 for an
	// outer iteration without partners (none, no value, NaN), and an
	// error the joined side raises is raised however the count is planned
	{"count-join-zero-rows", `for $p in doc("j.xml")//p return count(for $q in doc("j.xml")//q where number($p/@v) > $q/i return $q)`, "0 2 0 0"},
	{"count-join-eq-zero-rows", `for $p in doc("j.xml")//p return count(for $i in doc("j.xml")//q/i where $i = $p/@v return $i)`, "0 1 0 0"},
	{"count-join-let-strings", `for $p in doc("j.xml")//p let $l := for $i in doc("j.xml")//q/i where $p/@v >= $i return $i return count($l)`, "0 3 0 3"},
	{"count-join-exactly-one-empty", `for $p in doc("j.xml")//p return count(for $s in doc("j.xml")//s where $p/@v > exactly-one($s/i) return $s)`, "err:FORG0005"},

	// the predicate truth value (XQuery 1.0 §3.2.2): a predicate whose
	// value is one numeric item holds where it equals the context
	// position, whether or not that is visible before run time; any
	// other value, a node whose content is a number included, holds by
	// its effective boolean value
	{"pred-numeric-let", `let $n := 2 return doc("num.xml")/r/a[$n]`, "<a>2</a>"},
	{"pred-numeric-count", `doc("num.xml")/r/a[count(doc("num.xml")/r/a) - 1]`, "<a>2</a>"},
	{"pred-numeric-for", `for $i in (1, 2) return doc("num.xml")/r/a[$i]`, "<a>1</a><a>2</a>"},
	{"pred-numeric-number", `(10, 20, 30)[number(2)]`, "20"},
	{"pred-numeric-per-item", `doc("num.xml")/r/a[4 - number(.)]`, "<a>2</a>"},
	{"pred-numeric-descendant", `let $n := 2 return doc("nest.xml")//a[$n]`, "<a>2</a><a>4</a>"},
	{"pred-numeric-reverse-axis", `let $n := 1 return name(doc("rev.xml")//d/ancestor::*[$n])`, "c"},
	{"pred-node-not-numeric", `doc("num.xml")/r/a[.]`, "<a>1</a><a>2</a><a>3</a>"},
	{"pred-untyped-not-numeric", `doc("num.xml")/r/a[data(.)]`, "<a>1</a><a>2</a><a>3</a>"},
	{"pred-string", `(10, 20, 30)["x"]`, "10 20 30"},
	{"pred-two-atoms", `(10, 20)[(1, 2)]`, "err:FORG0006"},

	// the condition operators (XQuery 1.0 §3.6, F&O 9.3.1, 15.1.4,
	// 15.1.5) in a where clause, a step predicate, an if condition and
	// value position; or holds once in an iteration both sides hold in
	{"where-or-both", `for $i in (1, 2) where $i = 1 or $i < 2 return $i`, "1"},
	{"where-and", `for $i in (1, 2, 3) where $i > 1 and $i < 3 return $i`, "2"},
	{"where-and-or", `for $i in (1, 2, 3) where $i = 1 or $i = 3 and $i > 1 return $i`, "1 3"},
	{"where-not", `for $i in (1, 2, 3) where not($i = 2) return $i`, "1 3"},
	{"where-exists", `for $i in (1, 2, 3) where exists((2, 3)[. = $i]) return $i`, "2 3"},
	{"where-empty", `for $i in (1, 2, 3) where empty((2, 3)[. = $i]) return $i`, "1"},
	{"where-true", `for $i in (1, 2) where true() return $i`, "1 2"},
	{"where-false", `for $i in (1, 2) where false() return $i`, ""},
	{"pred-or", `doc("num.xml")/r/a[. = 1 or . = 3]`, "<a>1</a><a>3</a>"},
	{"pred-and", `doc("num.xml")/r/a[. > 1 and . < 3]`, "<a>2</a>"},
	{"pred-not-and-or", `doc("num.xml")/r/a[not(. = 2) and not(. = 3) or false()]`, "<a>1</a>"},
	{"pred-not", `doc("num.xml")/r/a[not(. = 2)]`, "<a>1</a><a>3</a>"},
	{"pred-exists", `/*/m/*[exists(@x)]`, `<n x="4">2</n>`},
	{"pred-empty", `/*/m/*[empty(@x)]`, `<o y="q">t</o>`},
	{"pred-true", `(10, 20)[true()]`, "10 20"},
	{"pred-false", `(10, 20)[false()]`, ""},
	{"if-or", `for $i in (1, 2, 3) return if ($i = 1 or $i = 3) then "y" else "n"`, "y n y"},
	{"if-and", `for $i in (1, 2, 3) return if ($i > 1 and $i < 3) then "y" else "n"`, "n y n"},
	{"if-not", `for $i in (1, 2) return if (not($i = 1)) then "y" else "n"`, "n y"},
	{"if-exists", `for $i in (1, 2) return if (exists((2)[. = $i])) then "y" else "n"`, "n y"},
	{"if-empty", `for $i in (1, 2) return if (empty((2)[. = $i])) then "y" else "n"`, "y n"},
	{"if-true", `if (true()) then "y" else "n"`, "y"},
	{"if-false", `if (false()) then "y" else "n"`, "n"},
	{"value-or", `for $i in (1, 2) return $i = 1 or $i < 2`, "true false"},
	{"value-and", `for $i in (1, 2, 3) return $i > 1 and $i < 3`, "false true false"},
	{"value-not", `for $i in (1, 2) return not($i = 1)`, "false true"},
	{"value-exists", `for $i in (1, 2) return exists((2)[. = $i])`, "false true"},
	{"value-empty", `for $i in (1, 2) return empty((2)[. = $i])`, "true false"},
	{"value-true-false", `(true() and false(), true() or false(), not(false()))`, "false true true"},
	{"not-empty-loop", `for $i in () return not($i = 1)`, ""},
	{"if-empty-loop", `for $i in () return if ($i = 1) then "y" else "n"`, ""},
	{"if-not-filtered-loop", `for $i in (1, 2) where $i > 5 return if (not($i = 1)) then "y" else "n"`, ""},
	{"count-not-empty-loop", `count(for $i in () return not(exists($i)))`, "0"},
	{"or-ebv-error", `for $i in (1, 2) where $i = 2 or (1, 2) return $i`, "err:FORG0006"},
	{"not-ebv-error", `for $i in (1, 2) where not(("a", "b")) return $i`, "err:FORG0006"},
	{"if-ebv-error", `if ((1, 2)) then 1 else 2`, "err:FORG0006"},

	// a path's result is duplicate-free in document order (XPath 2.0
	// §3.2): a context node that occurs twice yields its children, its
	// attributes and itself once
	{"dup-context-child", `count((doc("rev.xml")/r, doc("rev.xml")/r)/a)`, "1"},
	{"dup-context-child-let", `let $s := (doc("rev.xml")/r, doc("rev.xml")/r) return count($s/a)`, "1"},
	{"dup-context-child-items", `(doc("num.xml")/r, doc("num.xml")/r)/a`, "<a>1</a><a>2</a><a>3</a>"},
	{"dup-context-child-star", `count((doc("rev.xml")/r, doc("rev.xml")/r)/*)`, "2"},
	{"dup-context-self", `count((doc("rev.xml")/r, doc("rev.xml")/r)/self::r)`, "1"},
	{"dup-context-attribute", `count((doc("attrs.xml")//b, doc("attrs.xml")//b)/@id)`, "1"},
	{"dup-context-attribute-self", `count((doc("attrs.xml")//@id, doc("attrs.xml")//@id)/self::node())`, "2"},
	{"dup-context-attribute-dos", `count((doc("attrs.xml")//@id, doc("attrs.xml")//@id)/descendant-or-self::node())`, "2"},

	// Two xs:integer values compare as themselves (F&O 6.3), so
	// integers past 2^53, which one xs:double cannot tell apart, still
	// order, pick an extremum and deduplicate exactly; where an
	// xs:double takes part, the values compare as xs:double.
	{"order-by-past-2-53", `for $x in (9007199254740993, 9007199254740992) order by $x return $x`, "9007199254740992 9007199254740993"},
	{"order-by-desc-past-2-53", `for $x in (9007199254740992, 9007199254740993) order by $x descending return $x`, "9007199254740993 9007199254740992"},
	{"min-past-2-53", `min((9007199254740993, 9007199254740992))`, "9007199254740992"},
	{"max-past-2-53", `max((9007199254740992, 9007199254740993))`, "9007199254740993"},
	{"distinct-values-past-2-53", `count(distinct-values((9007199254740993, 9007199254740992)))`, "2"},
	{"distinct-values-past-2-53-double", `count(distinct-values((9007199254740993, 9007199254740992, 0.5)))`, "2"},
	{"max-past-2-53-double", `max((9007199254740992, 9007199254740993, 0.5))`, "9007199254740992"},
	{"order-by-past-2-53-double", `for $x in (9007199254740993, 9007199254740992, 0.5) order by $x return $x`, "0.5 9007199254740993 9007199254740992"},
	// general comparisons of two xs:integer operands are exact too, in a
	// single loop, per iteration and through the existential join's pair,
	// count and equality kernels
	{"general-gt-past-2-53", `(3, 9007199254740993) > 9007199254740992`, "true"},
	{"general-gt-past-2-53-loop", `for $x in (1, 2) return ((3, 9007199254740993)[$x] > 9007199254740992)`, "false true"},
	{"join-gt-past-2-53", `for $x in (9007199254740992, 5) for $y in (9007199254740993, 1) where $y > $x return $y`, "9007199254740993 9007199254740993"},
	{"join-gt-past-2-53-count", `count(for $x in (9007199254740992, 5) for $y in (9007199254740993, 1) where $y > $x return $y)`, "2"},
	{"join-eq-past-2-53", `for $x in (9007199254740992, 5) for $y in (9007199254740993, 9007199254740992) where $y = $x return $y`, "9007199254740992"},
	// integers stay exact per iteration: another iteration's double
	// does not make them compare as xs:double
	{"distinct-values-past-2-53-loop", `for $a in (1, 2) return count(distinct-values(if ($a = 1) then (9007199254740993, 9007199254740992) else 0.5))`, "2 1"},
	{"order-by-past-2-53-loop", `for $a in (1, 2) return (for $x in (if ($a = 1) then (9007199254740993, 9007199254740992) else (0.25, 0.5)) order by $x return $x)[1]`, "9007199254740992 0.25"},
	// fn:distinct-values (F&O 15.1.6): every NaN is one value, -0 and +0
	// are one value, and the first occurrence is kept
	{"distinct-values-nan", `count(distinct-values((0 div 0e0, number("x"))))`, "1"},
	{"distinct-values-signed-zero", `count(distinct-values((0e0, -0e0)))`, "1"},
	{"distinct-values-signed-zero-first", `distinct-values((0e0, -0e0))`, "0"},
	{"distinct-values-zeros-int-double", `count(distinct-values((1, -0e0, 0e0, 0)))`, "2"},
	// a join over a column that mixes xs:integer and xs:double compares
	// an integer pair exactly
	{"join-eq-past-2-53-mixed", `for $x in (0.5, 9007199254740993) for $y in (9007199254740992, 7) where $x = $y return $x`, ""},
	{"join-gt-past-2-53-mixed", `for $x in (0.5, 9007199254740993) for $y in (9007199254740992, 7) where $x > $y return $x`, "9007199254740993 9007199254740993"},
	{"join-eq-past-2-53-mixed-count", `count(for $x in (0.5, 9007199254740993) for $y in (9007199254740992, 7) where $x = $y return $x)`, "0"},
	// an untyped row that is not a number satisfies no numeric
	// comparison, per iteration too, beside numeric rows that do
	{"general-gt-nan-item-loop", `for $r in doc("p2.xml")/r return ($r/p > 9, $r/p > 10)`, "true false"},
	// a range (XQuery 1.0 §3.3.1) converts its atomized bounds to xs:integer:
	// integers stay exact, untyped values are cast, other kinds are a
	// type error, and a range may end at the largest integer
	{"range-past-2-53", `9007199254740993 to 9007199254740994`, "9007199254740993 9007199254740994"},
	{"range-to-max-integer", `count(9223372036854775806 to 9223372036854775807)`, "2"},
	{"range-from-attribute", `/root/m/n/@x to 5`, "4 5"},
	{"range-from-element", `/root/m/n to 3`, "2 3"},
	{"range-from-decimal", `1.5 to 3`, "err:XPTY0004"},

	// an operand that must be one item (XQuery 1.0 §3.4, §3.5.1, §3.8.3,
	// the single-item arguments of F&O) is XPTY0004 when it holds more,
	// never its first item; fn:exactly-one and fn:one-or-more have their
	// own codes (F&O 15.2)
	{"singleton-value-compare", `(1, 2) eq 3`, "err:XPTY0004"},
	{"singleton-add", `(1, 2) + 3`, "err:XPTY0004"},
	{"singleton-range", `(1, 2) to 3`, "err:XPTY0004"},
	{"singleton-negate", `-(1, 2)`, "err:XPTY0004"},
	{"singleton-concat", `concat(("a", "b"), "c")`, "err:XPTY0004"},
	{"singleton-contains", `contains(("ab", "c"), "a")`, "err:XPTY0004"},
	{"singleton-string", `string((1, 2))`, "err:XPTY0004"},
	{"singleton-string-length", `string-length(("ab", "c"))`, "err:XPTY0004"},
	{"singleton-name", `name((/root/a, /root/b))`, "err:XPTY0004"},
	{"singleton-floor", `floor((1.5, 2.5))`, "err:XPTY0004"},
	{"singleton-order-key", `for $x in (1, 2) order by ($x, 5) return $x`, "err:XPTY0004"},
	{"exactly-one-two", `exactly-one((1, 2))`, "err:FORG0005"},
	{"exactly-one-empty", `exactly-one(())`, "err:FORG0005"},
	{"one-or-more-empty", `one-or-more(())`, "err:FORG0004"},
	// a checked operand keeps its rows: a lone item that a filter left
	// is the result's first item
	{"singleton-add-position", `((5, 6)[2] + 1)[1]`, "7"},
	{"singleton-negate-position", `(-(5, 6)[2])[1]`, "-6"},
	{"singleton-range-position", `((5, 6)[2] to 7)[1]`, "6"},
	{"singleton-concat-position", `(concat((5, 6)[2], "x"))[1]`, "6x"},
	// an empty operand gives the empty sequence or the function's default
	{"empty-add", `() + 1`, ""},
	{"empty-value-compare", `() eq 1`, ""},
	{"empty-string-length", `string-length(())`, "0"},
	{"empty-concat", `concat((), "c")`, "c"},

	// every evaluation of an element constructor creates a new node
	// (XQuery 1.0 §3.7.1): two equal constructors, or one per iteration,
	// are distinct nodes, while one variable's node is the same however
	// often it is read
	{"construct-is-distinct", `<a/> is <a/>`, "false"},
	{"construct-is-distinct-loop", `for $i in (1, 2) return <a/> is <a/>`, "false false"},
	{"construct-union-distinct", `count((<a><b/></a>/b | <a><b/></a>/b))`, "2"},
	{"construct-union-same-var", `let $x := <a><b/></a> return count(($x/b | $x/b))`, "1"},

	// nested direct constructors (XQuery 1.0 §3.7.1): a nested element is
	// content of its parent, between its neighbours, and ends a run of text
	{"construct-nested-between", `<a>{1}<b>{2}</b>{3}</a>`, "<a>1<b>2</b>3</a>"},
	{"construct-nested-attr-value", `<a>1<b x="{1+1}">{2}</b>3</a>`, `<a>1<b x="2">2</b>3</a>`},
	{"construct-nested-per-iteration", `for $i in 1 to 3 return <a n="{$i}"><b>{$i}</b><c><d>{$i*2}</d>t</c></a>`,
		`<a n="1"><b>1</b><c><d>2</d>t</c></a><a n="2"><b>2</b><c><d>4</d>t</c></a><a n="3"><b>3</b><c><d>6</d>t</c></a>`},
	{"construct-nested-parent", `(<a><b/></a>/b)/..`, "<a><b/></a>"},
	{"construct-nested-descendants", `count(<a><b/><b/></a>//b)`, "2"},
	{"construct-nested-document", `<a><b>{doc("num.xml")}</b></a>`, "<a><b><r><a>1</a><a>2</a><a>3</a></r></b></a>"},
	{"construct-enclosed-element", `<a>{<b>1</b>}<c/></a>`, "<a><b>1</b><c/></a>"},
	{"construct-nested-attr-node", `<a><b>{doc("attrs.xml")/r/c/@id}x</b></a>`, `<a><b id="i2">x</b></a>`},
	// an attribute node after content is a type error (§3.7.1.3), and a
	// nested element is content
	{"construct-attr-after-nested", `<a><b/>{doc("attrs.xml")/r/c/@id}</a>`, "err:XQTY0024"},
	{"construct-attr-after-text-nested", `<a><b>x{doc("attrs.xml")/r/c/@id}</b></a>`, "err:XQTY0024"},
	// two attributes of one name: a static error when both are literal
	// (§3.7.1.1), a dynamic one when content brings one (§3.7.1.3)
	{"construct-dup-attr-literal", `<a b="1" b="2"/>`, "err:XQST0040"},
	{"construct-dup-attr-content", `<a id="1">{doc("attrs.xml")/r/c/@id}</a>`, "err:XQDY0025"},
	{"construct-dup-attr-two-nodes", `<a>{doc("attrs.xml")//@id}</a>`, "err:XQDY0025"},
	{"construct-dup-attr-nested", `<a><b id="1">{doc("attrs.xml")/r/c/@id}</b></a>`, "err:XQDY0025"},
	{"construct-same-attr-other-element", `<a id="1"><b>{doc("attrs.xml")/r/c/@id}</b></a>`, `<a id="1"><b id="i2"/></a>`},

	// a node's value used as a number ignores surrounding blanks and
	// spells the special values INF, -INF and NaN (XML Schema's xs:double
	// lexical space); a value that is no number is NaN, as fn:number makes
	// it (F&O 14.1.1), and satisfies no comparison — whether it is read
	// from a document, a copy of one of its texts, or a constructed element
	{"number-blank-exponent-cmp", `doc("vals.xml")/r/v[1] = 1000`, "true"},
	{"number-blank-exponent-sum", `sum(doc("vals.xml")/r/v[1])`, "1000"},
	{"number-inf-cmp", `doc("vals.xml")/r/v[2] > 1e308`, "true"},
	{"number-inf-sum", `sum(doc("vals.xml")/r/v[2])`, "INF"},
	{"number-neg-inf-cmp", `doc("vals.xml")/r/v[3] < -1e308`, "true"},
	{"number-neg-inf-sum", `sum(doc("vals.xml")/r/v[3])`, "-INF"},
	{"number-nan-cmp", `(doc("vals.xml")/r/v[4] < 1, doc("vals.xml")/r/v[4] >= 1)`, "false false"},
	{"number-nan-sum", `sum(doc("vals.xml")/r/v[4])`, "NaN"},
	{"number-text-cmp", `(doc("vals.xml")/r/v[6] < 1, doc("vals.xml")/r/v[6] >= 1)`, "false false"},
	{"number-text-sum", `sum(doc("vals.xml")/r/v[6])`, "NaN"},
	// -0 keeps its sign: 1 div -0 is -INF
	{"number-negative-zero", `(1 div number(doc("vals.xml")/r/v[5]), 1 div doc("vals.xml")/r/v[5])`, "-INF -INF"},
	{"number-negative-zero-string", `(string(-(0.0e0)), number("-0"), string(number(doc("vals.xml")/r/v[5])))`, "-0 -0 -0"},
	{"number-negative-zero-arith", `(-0.0e0 * 1, 0 * -1.5e0, 0.0e0 + -0.0e0, -(0))`, "-0 -0 0 0"},
	{"number-attr-blanks", `(doc("vals.xml")/r/p/@a + 1, sum(doc("vals.xml")/r/p/@a), count(doc("vals.xml")/r/p[@a = 5]))`, "6 5 1"},
	{"number-copied-text", `<a>{(doc("vals.xml")//price)[1]/text()}</a> + 0`, "12.5"},
	{"number-multi-text-doc", `doc("vals.xml")/r/m * 2`, "68"},
	{"number-multi-text-constructed", `number(<a>1<b>2</b></a>)`, "12"},
	{"number-between-constructors", `let $a := <a>1</a> return (number($a), number(<b>2</b>))`, "1 2"},

	// xs:double's lexical space (XML Schema 1.0 §3.2.5): an optionally
	// signed decimal mantissa with an optional exponent, INF, -INF and NaN,
	// with surrounding whitespace; Go's other spellings are no number
	{"number-go-inf", `number("inf")`, "NaN"},
	{"number-go-infinity", `number("Infinity")`, "NaN"},
	{"number-plus-inf", `number("+INF")`, "NaN"},
	{"number-go-hex", `number("0x1p4")`, "NaN"},
	{"number-go-underscore", `number("1_0")`, "NaN"},
	{"number-lexical-forms", `(number(" -INF "), number("+1.5e2"), number(".5"), number("5."), number("1e"), number("."))`, "-INF 150 0.5 5 NaN NaN"},

	// adjacent atoms in element content (XQuery 1.0 §3.7.1.3): the items
	// of one enclosed expression join with a space, literal text and
	// enclosed expressions with nothing
	{"construct-text-then-enclosed", `<a>x{1}</a>`, "<a>x1</a>"},
	{"construct-adjacent-enclosed", `<a>{1}{2}</a>`, "<a>12</a>"},
	{"construct-enclosed-sequence", `<a>{(1,2)}</a>`, "<a>1 2</a>"},
	{"construct-adjacent-mixed", `<a>{(1,2)}{3}x{4}y</a>`, "<a>1 23x4y</a>"},
	{"construct-adjacent-empty", `<a>x{()}y</a>`, "<a>xy</a>"},
	{"construct-adjacent-nested", `<a>{1}<b>{2}{3}</b>{4}{5}</a>`, "<a>1<b>23</b>45</a>"},

	// a constructed tree that is only serialized takes its content by
	// reference; one that is navigated, atomized, compared or bound to a
	// prolog variable copies it, and so does the content it takes
	{"construct-ref-let-twice", `let $p := <p>{doc("num.xml")/r/a[2]}</p> return <c>{$p}{$p}</c>`, "<c><p><a>2</a></p><p><a>2</a></p></c>"},
	{"construct-ref-document", `<r>{doc("num.xml")}</r>`, "<r><r><a>1</a><a>2</a><a>3</a></r></r>"},
	{"construct-ref-counted", `count(for $i in (1 to 3) return <r>{doc("num.xml")/r}</r>)`, "3"},
	{"construct-ref-sorted", `for $a in (<b>{doc("num.xml")/r/a[2]}</b>, <c>{doc("num.xml")/r/a[1]}</c>) order by string($a) return $a`, "<c><a>1</a></c><b><a>2</a></b>"},
	{"construct-copy-step", `(<a>{//b}</a>)/b`, "<b><plain>text</plain></b>"},
	{"construct-copy-string", `let $t := <t><name>n1</name></t> return string(<a>{$t/name/text()}</a>)`, "n1"},
	{"construct-copy-is", `let $x := doc("num.xml")/r/a[1] return <a>{$x}</a> is <a>{$x}</a>`, "false"},
	{"construct-copy-document-descendants", `count(<a>{/}</a>//*)`, "8"},
	{"construct-copy-prolog-variable", `declare variable $v := <a>{//b}</a>; $v/b`, "<b><plain>text</plain></b>"},
	{"construct-copy-content-and-navigated", `let $c := <c>{doc("num.xml")/r/a}</c> return <r n="{count($c/a)}">{$c}</r>`, `<r n="3"><c><a>1</a><a>2</a><a>3</a></c></r>`},
	// an attribute in the result serializes as name="value", its value
	// escaped as inside an element
	{"serialize-attribute-top-level", `<a b="x&quot;y&lt;\z"/>/@b`, `b="x&quot;y&lt;\z"`},
	{"serialize-attribute-top-level-document", `(doc("attrs.xml")//@id)[1]`, `id="i1"`},
	{"construct-copy-nested-navigated", `let $c := <c>{<d>{doc("num.xml")/r/a[3]}</d>}</c> return ($c//a, <e>{$c}</e>)`, "<a>3</a><e><c><d><a>3</a></d></c></e>"},
}

// specDocs are the documents besides spec.xml that cases address with
// doc().
var specDocs = map[string]string{
	"p.xml":     `<r><p>10</p><p>9</p><p>100</p></r>`,
	"p2.xml":    `<r><p>10</p><p>abc</p><p/></r>`,
	"attrs.xml": `<r><a x="1" y="2" z="3"><b id="i1"/></a><c id="i2"><d/></c></r>`,
	"rev.xml":   `<r><a><b/><c id="c1"><d/></c><e id="e1"/></a><f/></r>`,
	"j.xml":     `<r><p v="1"/><p v="5"/><p/><p v="x"/><q><i>2</i></q><q><i>3</i></q><q><i>5</i></q><s><i>1</i></s><s/></r>`,
	"num.xml":   `<r><a>1</a><a>2</a><a>3</a></r>`,
	"nest.xml":  `<r><a>1</a><a>2</a><s><a>3</a><a>4</a></s></r>`,
	"vals.xml":  `<r><v> 1e3 </v><v>INF</v><v>-INF</v><v>NaN</v><v>-0</v><v>abc</v><p a=" 5 "/><price>12.5</price><price>7</price><m>3<b>4</b></m></r>`,
}

// loadSpecDocs loads spec.xml, the context document, then specDocs.
func loadSpecDocs(t *testing.T, load func(name, xml string) error) {
	t.Helper()
	if err := load("spec.xml", specDoc); err != nil {
		t.Fatal(err)
	}
	for name, xml := range specDocs {
		if err := load(name, xml); err != nil {
			t.Fatal(err)
		}
	}
}

// checkSpec compares one engine's answer with the case's expectation.
func checkSpec(t *testing.T, label, name, query, want, got string, err error) {
	t.Helper()
	switch code, wantErr := strings.CutPrefix(want, "err:"); {
	case wantErr && (err == nil || !strings.Contains(err.Error(), code)):
		t.Errorf("%s%s: %s = %q, %v; want error %s", label, name, query, got, err, code)
	case !wantErr && err != nil:
		t.Errorf("%s%s: %s: %v", label, name, query, err)
	case !wantErr && got != want:
		t.Errorf("%s%s: %s = %q, want %q", label, name, query, got, want)
	}
}

func TestSpecConformanceRelational(t *testing.T) {
	db := mxq.Open()
	loadSpecDocs(t, db.LoadDocumentString)
	for _, c := range specCases {
		got, err := db.QueryString(c.query)
		checkSpec(t, "", c.name, c.query, c.want, got, err)
	}
}

// TestSpecConformanceNoJoinRecognition runs the suite on the plans the
// compiler emits without join recognition (selections over Cartesian
// products, not existential joins): both plan shapes must conform.
func TestSpecConformanceNoJoinRecognition(t *testing.T) {
	db := mxq.Open(mxq.WithJoinRecognition(false))
	loadSpecDocs(t, db.LoadDocumentString)
	for _, c := range specCases {
		got, err := db.QueryString(c.query)
		checkSpec(t, "", c.name, c.query, c.want, got, err)
	}
}

// A range longer than the row limit is the typed resource error, not a
// row count that overflows. The naive interpreter has no row limit, so
// this runs on the relational engine only.
func TestRangeOverRowLimit(t *testing.T) {
	got, err := mxq.Open().QueryString(`count(-9223372036854775807 to 0)`)
	if !mxq.IsResourceLimit(err) {
		t.Errorf("count(-9223372036854775807 to 0) = %q, %v; want XPDY0130", got, err)
	}
}

func TestSpecConformanceNaive(t *testing.T) {
	for _, c := range specCases {
		in := naive.New()
		loadSpecDocs(t, func(name, xml string) error { return in.LoadXML(name, strings.NewReader(xml)) })
		got, err := in.QueryString(c.query)
		checkSpec(t, "", c.name, c.query, c.want, got, err)
	}
}

// --- fn:count, fn:exists, fn:empty and conditions over a path ------------

// pathCountCases put a path (the %s of query) where only its length or
// whether it is empty matters: fn:count, fn:exists, fn:empty, an if
// condition or a where clause. counted marks a path whose last step
// cannot see position, which compiles to a count plan; the others are
// numbered like any path.
var pathCountCases = []struct {
	name, query, path string
	counted           bool
	want              string
}{
	{"child", `count(%s)`, `doc("rev.xml")/r/a/*`, true, "3"},
	{"descendant", `count(%s)`, `doc("rev.xml")//*`, true, "7"},
	{"descendant-or-self", `count(%s)`, `doc("rev.xml")/r/descendant-or-self::*`, true, "7"},
	{"self", `count(%s)`, `doc("rev.xml")//*/self::c`, true, "1"},
	{"parent", `count(%s)`, `doc("rev.xml")//*/parent::*`, true, "3"},
	{"ancestor", `count(%s)`, `doc("rev.xml")//d/ancestor::*`, true, "3"},
	{"ancestor-or-self", `count(%s)`, `doc("rev.xml")//d/ancestor-or-self::node()`, true, "5"},
	{"following", `count(%s)`, `doc("rev.xml")//c/following::*`, true, "2"},
	{"preceding", `count(%s)`, `doc("rev.xml")//e/preceding::*`, true, "3"},
	{"following-sibling", `count(%s)`, `doc("rev.xml")//b/following-sibling::*`, true, "2"},
	{"preceding-sibling", `count(%s)`, `doc("rev.xml")//e/preceding-sibling::*`, true, "2"},
	{"attribute", `count(%s)`, `doc("attrs.xml")//@*`, true, "5"},
	{"attribute-named", `exists(%s)`, `doc("attrs.xml")//a/@y`, true, "true"},
	{"attribute-parent", `count(%s)`, `doc("attrs.xml")//@id/..`, true, "2"},
	{"attribute-self", `count(%s)`, `doc("attrs.xml")//b/@id/self::node()`, true, "1"},
	{"attribute-self-elem", `count(%s)`, `doc("attrs.xml")//@id/self::*`, true, "0"},
	{"attribute-ancestor-or-self", `count(%s)`, `doc("attrs.xml")//b/@id/ancestor-or-self::node()`, true, "5"},
	{"attribute-descendant-or-self", `count(%s)`, `doc("attrs.xml")//@id/descendant-or-self::node()`, true, "2"},
	{"attribute-following", `count(%s)`, `doc("attrs.xml")//a/@x/following::*`, true, "3"},
	{"mixed-context-ancestor", `count(%s)`, `(doc("attrs.xml")//@id, doc("attrs.xml")//d)/ancestor::*`, true, "4"},
	{"empty-context", `count(%s)`, `doc("rev.xml")//zz/*`, true, "0"},
	{"empty-context-exists", `exists(%s)`, `doc("rev.xml")//zz/*`, true, "false"},
	{"empty-context-empty", `empty(%s)`, `doc("rev.xml")//zz/*`, true, "true"},
	{"empty-result", `empty(%s)`, `doc("rev.xml")//b/*`, true, "true"},
	{"nonempty-empty", `empty(%s)`, `doc("rev.xml")//c/*`, true, "false"},
	{"per-iteration-count", `for $x in doc("rev.xml")/r/a/* return count(%s)`, `$x//*`, true, "0 1 0"},
	{"per-iteration-exists", `for $x in doc("rev.xml")//* return exists(%s)`, `$x/*`, true, "true true false true false false false"},
	{"per-iteration-empty", `for $x in doc("rev.xml")//* return empty(%s)`, `$x/@id`, true, "true true true false true false true"},
	{"per-iteration-filtered", `for $x in doc("rev.xml")/r/* return count(%s)`, `$x//*[@id]`, true, "2 0"},
	{"filtered", `count(%s)`, `doc("attrs.xml")//*[@id]`, true, "2"},
	{"filtered-exists", `exists(%s)`, `doc("rev.xml")//*[@id][*]`, true, "true"},
	{"filtered-empty", `empty(%s)`, `doc("rev.xml")//*[@id][f]`, true, "true"},
	{"filtered-mid-path", `count(%s)`, `doc("rev.xml")//*[@id]/*`, true, "1"},
	{"positional", `count(%s)`, `doc("rev.xml")//*[1]`, false, "4"},
	{"positional-last", `count(%s)`, `doc("rev.xml")/r/a/*[last()]`, false, "1"},
	{"positional-exists", `for $x in doc("rev.xml")/r/* return exists(%s)`, `$x/*[2]`, false, "true false"},
	{"if", `if (%s) then "y" else "n"`, `doc("rev.xml")//d`, true, "y"},
	{"if-per-iteration", `for $x in doc("rev.xml")/r/* return if (%s) then "y" else "n"`, `$x/*`, true, "y n"},
	{"if-attribute", `for $x in doc("rev.xml")//* return if (%s) then name($x) else ()`, `$x/@id`, true, "c e"},
	{"where", `for $x in doc("rev.xml")//* where %s return name($x)`, `$x/*/*`, true, "r a"},
	{"not", `for $x in doc("rev.xml")/r/a/* return not(%s)`, `$x/*`, true, "true false true"},
	{"count-arith", `count(%s) + 1`, `doc("rev.xml")//*`, true, "8"},
}

// TestSpecConformancePathCounts runs pathCountCases on three engines:
// the relational engine as written (a counted case must compile to a
// count plan), the relational engine with the path wrapped in a
// two-item sequence, which compiles it like any other path, and the
// naive interpreter.
func TestSpecConformancePathCounts(t *testing.T) {
	db := mxq.Open()
	loadSpecDocs(t, db.LoadDocumentString)
	oracle := naive.New()
	loadSpecDocs(t, func(name, xml string) error { return oracle.LoadXML(name, strings.NewReader(xml)) })
	for _, c := range pathCountCases {
		q := fmt.Sprintf(c.query, c.path)
		plan, err := db.ExplainPlan(q)
		if err != nil {
			t.Fatalf("%s: %s: %v", c.name, q, err)
		}
		if counted := strings.Contains(plan, " count)") || strings.Contains(plan, "aggr(item := count() part"); counted != c.counted {
			t.Errorf("%s: %s compiles to a count plan: %v, want %v\n%s", c.name, q, counted, c.counted, plan)
		}
		got, err := db.QueryString(q)
		checkSpec(t, "[count plan] ", c.name, q, c.want, got, err)
		seq := fmt.Sprintf(c.query, "("+c.path+", ())")
		got, err = db.QueryString(seq)
		checkSpec(t, "[sequence] ", c.name, seq, c.want, got, err)
		got, err = oracle.QueryString(q)
		checkSpec(t, "[naive] ", c.name, q, c.want, got, err)
	}
}

// --- fn:doc / fn:collection conformance ----------------------------------

// The doc/collection suite runs a fixed corpus — one context document,
// one doc()-addressable document, and a three-document collection
// sharded across two containers — through the relational engine and the
// naive interpreter.
// Expected values (and expected error codes, marked by a "FODC" prefix in
// want) come from the XQuery 1.0 / F&O specs: FODC0002 for an
// unavailable document, FODC0004 for an unavailable collection.

// docCollCases builds the expected values from the engine's own
// document-order contract: order is what CollectionDocs reported for the
// loaded corpus (the shard-major contract itself is pinned by
// TestCollectionDocOrder against store.ShardOf).
func docCollCases(t *testing.T, order []string) []struct{ name, query, want string } {
	t.Helper()
	var inOrder strings.Builder
	for _, d := range order {
		inOrder.WriteString(strings.TrimSuffix(strings.TrimPrefix(d, "c"), ".xml"))
	}
	return []struct{ name, query, want string }{
		// fn:doc — F&O 15.5.4: absolute paths stay on the context
		// document; doc() addresses any loaded document; an unavailable
		// document raises FODC0002.
		{"doc-other", `doc("other.xml")/r/v/text()`, "9"},
		{"doc-context-untouched", `string(/root/b/*)`, "text"},
		{"doc-unknown", `doc("nope.xml")`, "FODC0002"},
		{"doc-folded-arg", `doc(concat("other", ".xml"))/r/v/text()`, "9"},
		// xs:string? argument: a statically empty sequence yields (); a
		// multi-item sequence is the XPTY0004 type error
		{"doc-empty-arg", `count(doc(()))`, "0"},
		{"collection-empty-arg", `count(collection(()))`, "0"},
		{"doc-multi-arg", `doc(("other.xml", "spec.xml"))`, "XPTY0004"},
		{"collection-multi-arg", `collection(("col", "col"))`, "XPTY0004"},
		// fn:collection — F&O 15.5.6: enumerates the corpus in a stable
		// document order; an unavailable collection raises FODC0004.
		{"collection-count", `count(collection("col"))`, "3"},
		{"collection-unknown", `collection("nope")`, "FODC0004"},
		{"collection-doc-order", `collection("col")/r/v/text()`, inOrder.String()},
		{"collection-in-flwor", `for $d in collection("col") where number($d/r/v) > 1 return <v>{$d/r/v/text()}</v>`,
			flworWant(order)},
		{"collection-desc", `count(collection("col")//v)`, "3"},
		// count, exists and empty over a path across the shards: the
		// count plan, and the same path compiled as a sequence
		{"collection-count-path", `count(collection("col")/r/*)`, "3"},
		{"collection-count-seq", `count((collection("col")/r/*, ()))`, "3"},
		{"collection-exists-path", `exists(collection("col")//v/text())`, "true"},
		{"collection-empty-path", `empty(collection("col")/r/w)`, "true"},
		{"collection-count-per-doc", `for $d in collection("col") return count($d//v/..)`, "1 1 1"},
		{"collection-count-filtered", `count(collection("col")/r[v > 1])`, "2"},
		{"collection-root-kind", `count(collection("col")/..)`, "0"},
	}
}

// flworWant renders the FLWOR case's expected value in collection order.
func flworWant(order []string) string {
	var sb strings.Builder
	for _, d := range order {
		v := strings.TrimSuffix(strings.TrimPrefix(d, "c"), ".xml")
		if v != "1" {
			sb.WriteString("<v>" + v + "</v>")
		}
	}
	return sb.String()
}

var docCollCorpus = map[string]string{
	"c1.xml": `<r><v>1</v></r>`,
	"c2.xml": `<r><v>2</v></r>`,
	"c3.xml": `<r><v>3</v></r>`,
}

// checkDocColl runs one engine (as a QueryString closure) through the
// doc/collection cases. Expected values starting with an error-code
// prefix (FODC/XPTY) assert an error carrying that code.
func checkDocColl(t *testing.T, label string, order []string, query func(string) (string, error)) {
	t.Helper()
	for _, c := range docCollCases(t, order) {
		got, err := query(c.query)
		if strings.HasPrefix(c.want, "FODC") || strings.HasPrefix(c.want, "XPTY") {
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("[%s] %s: %s error = %v, want code %s", label, c.name, c.query, err, c.want)
			}
			continue
		}
		if err != nil {
			t.Errorf("[%s] %s: %s: %v", label, c.name, c.query, err)
			continue
		}
		if got != c.want {
			t.Errorf("[%s] %s: %s = %q, want %q", label, c.name, c.query, got, c.want)
		}
	}
}

func TestSpecConformanceDocCollection(t *testing.T) {
	mkDB := func(opts ...mxq.Option) *mxq.DB {
		db := mxq.Open(opts...)
		if err := db.LoadDocumentString("spec.xml", specDoc); err != nil {
			t.Fatal(err)
		}
		if err := db.LoadDocumentString("other.xml", `<r><v>9</v></r>`); err != nil {
			t.Fatal(err)
		}
		var docs []mxq.Doc
		for _, n := range []string{"c1.xml", "c2.xml", "c3.xml"} {
			docs = append(docs, mxq.DocString(n, docCollCorpus[n]))
		}
		if err := db.LoadCollection("col", 2, docs...); err != nil {
			t.Fatal(err)
		}
		return db
	}
	serial := mkDB()

	oracle := naive.New()
	if err := oracle.LoadXML("spec.xml", strings.NewReader(specDoc)); err != nil {
		t.Fatal(err)
	}
	if err := oracle.LoadXML("other.xml", strings.NewReader(`<r><v>9</v></r>`)); err != nil {
		t.Fatal(err)
	}
	order, ok := serial.CollectionDocs("col")
	if !ok {
		t.Fatal("collection col not registered")
	}
	for _, d := range order {
		if err := oracle.AddCollectionXML("col", d, strings.NewReader(docCollCorpus[d])); err != nil {
			t.Fatal(err)
		}
	}

	checkDocColl(t, "serial", order, serial.QueryString)
	checkDocColl(t, "naive", order, oracle.QueryString)
}

// --- external variable / prepared statement error surface ----------------

// The prepared-query error cases assert the static and dynamic error
// codes of the external-variable surface (XQuery 1.0 §2.3 and F&O):
// XPST0008 for undeclared references and undeclared binding names,
// XQST0049 for duplicate declarations, XPDY0002 for executing with a
// required external unbound, and XPTY0004 for binding a multi-item
// sequence where the declaration's default implies a single item.
// Every case runs on the relational engine and the naive interpreter —
// both must raise the same code.
var externalVarErrorCases = []struct {
	name  string
	query string
	binds map[string][]xqt.Item
	code  string
}{
	{"undeclared-variable", `$nope + 1`, nil, "XPST0008"},
	{"undeclared-in-default", `declare variable $a external := $later; declare variable $later := 1; $a`, nil, "XPST0008"},
	{"bind-undeclared-name", `declare variable $x external; $x`,
		map[string][]xqt.Item{"x": {xqt.Int(1)}, "ghost": {xqt.Int(2)}}, "XPST0008"},
	{"bind-non-external", `declare variable $g := 1; $g`,
		map[string][]xqt.Item{"g": {xqt.Int(2)}}, "XPST0008"},
	{"required-unbound", `declare variable $x external; $x`, nil, "XPDY0002"},
	{"plural-bind-singleton-default", `declare variable $n external := 1; $n`,
		map[string][]xqt.Item{"n": {xqt.Int(1), xqt.Int(2)}}, "XPTY0004"},
	{"duplicate-declaration", `declare variable $x := 1; declare variable $x := 2; $x`, nil, "XQST0049"},
	{"duplicate-external", `declare variable $x external; declare variable $x external; $x`, nil, "XQST0049"},
}

func TestExternalVarErrorsAllEngines(t *testing.T) {
	serial := mxq.Open()
	if err := serial.LoadDocumentString("spec.xml", specDoc); err != nil {
		t.Fatal(err)
	}
	for _, c := range externalVarErrorCases {
		rb := relBindings(c.binds)
		for label, run := range map[string]func() (string, error){
			"serial": func() (string, error) { return queryBound(serial, c.query, rb) },
			"naive": func() (string, error) {
				in := naive.New()
				if err := in.LoadXML("spec.xml", strings.NewReader(specDoc)); err != nil {
					return "", err
				}
				return in.QueryStringBound(c.query, naiveBindings(c.binds))
			},
		} {
			got, err := run()
			if err == nil {
				t.Errorf("%s [%s]: %s returned %q, want error %s", c.name, label, c.query, got, c.code)
				continue
			}
			if !strings.Contains(err.Error(), c.code) {
				t.Errorf("%s [%s]: error %q does not carry %s", c.name, label, err, c.code)
			}
		}
	}
}

// TestExternalVarPositiveAllEngines pins the non-error side of the
// same surface: defaults apply when unbound, bindings override
// defaults, globals see earlier declarations, and both engines
// serialize identically.
func TestExternalVarPositiveAllEngines(t *testing.T) {
	serial := mxq.Open()
	if err := serial.LoadDocumentString("spec.xml", specDoc); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name  string
		query string
		binds map[string][]xqt.Item
		want  string
	}{
		{"default-applies", `declare variable $n external := 40; $n + 2`, nil, "42"},
		{"binding-overrides-default", `declare variable $n external := 40; $n + 2`,
			map[string][]xqt.Item{"n": {xqt.Int(0)}}, "2"},
		{"global-chain", `declare variable $a := 2; declare variable $b := $a * 3; $b`, nil, "6"},
		{"default-over-earlier-external", `declare variable $a external; declare variable $b external := $a + 1; $b`,
			map[string][]xqt.Item{"a": {xqt.Int(9)}}, "10"},
		{"sequence-binding", `declare variable $s external; sum($s)`,
			map[string][]xqt.Item{"s": {xqt.Int(1), xqt.Double(0.5), xqt.Int(3)}}, "4.5"},
		{"string-binding-in-path", `declare variable $tag external; count(/root//*[local-name(.) = $tag])`,
			map[string][]xqt.Item{"tag": {xqt.Str("plain")}}, "1"},
		{"bool-binding", `declare variable $flag external := false(); if ($flag) then "y" else "n"`,
			map[string][]xqt.Item{"flag": {xqt.Bool(true)}}, "y"},
		// prolog variables are in scope inside user-defined function
		// bodies (regression: the naive oracle used to give UDFs a fresh
		// scope holding only the parameters)
		{"prolog-var-in-udf", `declare variable $x external := 7; declare function local:f() { $x }; local:f()`,
			nil, "7"},
		{"prolog-var-in-udf-bound", `declare variable $x external; declare function local:f($y) { $x + $y }; local:f(1)`,
			map[string][]xqt.Item{"x": {xqt.Int(2)}}, "3"},
	}
	for _, c := range cases {
		rb := relBindings(c.binds)
		gotS, errS := queryBound(serial, c.query, rb)
		in := naive.New()
		if err := in.LoadXML("spec.xml", strings.NewReader(specDoc)); err != nil {
			t.Fatal(err)
		}
		gotN, errN := in.QueryStringBound(c.query, naiveBindings(c.binds))
		if errS != nil || errN != nil {
			t.Errorf("%s: errors serial=%v naive=%v", c.name, errS, errN)
			continue
		}
		for label, got := range map[string]string{"serial": gotS, "naive": gotN} {
			if got != c.want {
				t.Errorf("%s [%s]: got %q, want %q", c.name, label, got, c.want)
			}
		}
	}
}
