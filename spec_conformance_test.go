package mxq_test

import (
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
	if err := db.LoadDocumentString("spec.xml", specDoc); err != nil {
		t.Fatal(err)
	}
	for _, c := range specCases {
		got, err := db.QueryString(c.query)
		checkSpec(t, "", c.name, c.query, c.want, got, err)
	}
}

// TestSpecConformanceRelationalParallel runs the same suite through the
// parallel executor (forced workers, threshold 1) — the typed-vector
// kernels must produce spec-conformant output on the chunked paths too.
func TestSpecConformanceRelationalParallel(t *testing.T) {
	db := mxq.Open(mxq.WithWorkers(4))
	db.Engine() // ensure construction
	if err := db.LoadDocumentString("spec.xml", specDoc); err != nil {
		t.Fatal(err)
	}
	for _, c := range specCases {
		got, err := db.QueryString(c.query)
		checkSpec(t, "", c.name, c.query, c.want, got, err)
	}
}

// TestSpecConformanceNoJoinRecognition runs the suite on the plans the
// compiler emits without join recognition (selections over Cartesian
// products, not existential joins): both plan shapes must conform.
func TestSpecConformanceNoJoinRecognition(t *testing.T) {
	for name, opts := range map[string][]mxq.Option{
		"serial":   {mxq.WithJoinRecognition(false)},
		"parallel": {mxq.WithJoinRecognition(false), mxq.WithWorkers(4)},
	} {
		db := mxq.Open(opts...)
		if err := db.LoadDocumentString("spec.xml", specDoc); err != nil {
			t.Fatal(err)
		}
		for _, c := range specCases {
			got, err := db.QueryString(c.query)
			checkSpec(t, name+": ", c.name, c.query, c.want, got, err)
		}
	}
}

func TestSpecConformanceNaive(t *testing.T) {
	for _, c := range specCases {
		in := naive.New()
		if err := in.LoadXML("spec.xml", strings.NewReader(specDoc)); err != nil {
			t.Fatal(err)
		}
		got, err := in.QueryString(c.query)
		checkSpec(t, "", c.name, c.query, c.want, got, err)
	}
}

// --- fn:doc / fn:collection conformance ----------------------------------

// The doc/collection suite runs a fixed corpus — one context document,
// one doc()-addressable document, and a three-document collection
// sharded across two containers — through the serial relational engine,
// the forced-parallel relational engine, and the naive interpreter.
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
	par := mkDB(mxq.WithWorkers(4), mxq.WithParallelThreshold(1))

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
	checkDocColl(t, "parallel", order, par.QueryString)
	checkDocColl(t, "naive", order, oracle.QueryString)
}

// --- external variable / prepared statement error surface ----------------

// The prepared-query error cases assert the static and dynamic error
// codes of the external-variable surface (XQuery 1.0 §2.3 and F&O):
// XPST0008 for undeclared references and undeclared binding names,
// XQST0049 for duplicate declarations, XPDY0002 for executing with a
// required external unbound, and XPTY0004 for binding a multi-item
// sequence where the declaration's default implies a single item.
// Every case runs on the serial relational engine, the forced-parallel
// relational engine and the naive interpreter — all three must raise
// the same code.
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
	parallel := mxq.Open(mxq.WithWorkers(4), mxq.WithParallelThreshold(1))
	for _, db := range []*mxq.DB{serial, parallel} {
		if err := db.LoadDocumentString("spec.xml", specDoc); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range externalVarErrorCases {
		rb := relBindings(c.binds)
		for label, run := range map[string]func() (string, error){
			"serial":   func() (string, error) { return queryBound(serial, c.query, rb) },
			"parallel": func() (string, error) { return queryBound(parallel, c.query, rb) },
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
// defaults, globals see earlier declarations, and all three engines
// serialize identically.
func TestExternalVarPositiveAllEngines(t *testing.T) {
	serial := mxq.Open()
	parallel := mxq.Open(mxq.WithWorkers(4), mxq.WithParallelThreshold(1))
	for _, db := range []*mxq.DB{serial, parallel} {
		if err := db.LoadDocumentString("spec.xml", specDoc); err != nil {
			t.Fatal(err)
		}
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
		gotP, errP := queryBound(parallel, c.query, rb)
		in := naive.New()
		if err := in.LoadXML("spec.xml", strings.NewReader(specDoc)); err != nil {
			t.Fatal(err)
		}
		gotN, errN := in.QueryStringBound(c.query, naiveBindings(c.binds))
		if errS != nil || errP != nil || errN != nil {
			t.Errorf("%s: errors serial=%v parallel=%v naive=%v", c.name, errS, errP, errN)
			continue
		}
		for label, got := range map[string]string{"serial": gotS, "parallel": gotP, "naive": gotN} {
			if got != c.want {
				t.Errorf("%s [%s]: got %q, want %q", c.name, label, got, c.want)
			}
		}
	}
}
