package naive

import (
	"strings"
	"testing"
)

const auctionDoc = `<site><people><person id="person0"><name>Ada</name><age>30</age></person><person id="person1"><name>Bob</name><age>25</age></person><person id="person2"><name>Cyd</name></person></people><items><item id="i0" price="10"><name>chair</name></item><item id="i1" price="30"><name>table with gold leaf</name></item><item id="i2" price="20"><name>lamp</name></item></items></site>`

func interp(t *testing.T) *Interp {
	t.Helper()
	in := New()
	if err := in.LoadXML("auction.xml", strings.NewReader(auctionDoc)); err != nil {
		t.Fatal(err)
	}
	return in
}

func q(t *testing.T, in *Interp, query, want string) {
	t.Helper()
	got, err := in.QueryString(query)
	if err != nil {
		t.Fatalf("Query(%s): %v", query, err)
	}
	if got != want {
		t.Errorf("Query(%s):\n got  %q\n want %q", query, got, want)
	}
}

func TestBasicExpressions(t *testing.T) {
	in := interp(t)
	q(t, in, `1 + 2 * 3`, "7")
	q(t, in, `(1, 2, 3)`, "1 2 3")
	q(t, in, `10 div 4`, "2.5")
	q(t, in, `10 idiv 4`, "2")
	q(t, in, `10 mod 4`, "2")
	q(t, in, `-(5)`, "-5")
	q(t, in, `1 to 4`, "1 2 3 4")
	q(t, in, `"a" = "a"`, "true")
	q(t, in, `2 < 1`, "false")
	q(t, in, `if (1 < 2) then "y" else "n"`, "y")
	q(t, in, `concat("a", "b", "c")`, "abc")
	q(t, in, `contains("gold leaf", "gold")`, "true")
	q(t, in, `string-length("abcd")`, "4")
	q(t, in, `count((1,2,3))`, "3")
	q(t, in, `sum((1,2,3))`, "6")
	q(t, in, `avg((2,4))`, "3")
	q(t, in, `min((3,1,2))`, "1")
	q(t, in, `max((3,1,2))`, "3")
	q(t, in, `empty(())`, "true")
	q(t, in, `exists(())`, "false")
	q(t, in, `not(0)`, "true")
	q(t, in, `distinct-values((1, 2, 1, "a", "a"))`, "1 2 a")
	q(t, in, `(1,2)[. = 1] + 1`, "2") // filter expression over atoms
}

func TestPaths(t *testing.T) {
	in := interp(t)
	q(t, in, `/site/people/person/name/text()`, "AdaBobCyd")
	q(t, in, `/site/people/person[@id="person1"]/name/text()`, "Bob")
	q(t, in, `count(//item)`, "3")
	q(t, in, `count(/site//name)`, "6")
	q(t, in, `/site/items/item[2]/name/text()`, "table with gold leaf")
	q(t, in, `/site/items/item[last()]/name/text()`, "lamp")
	q(t, in, `count(/site/people/person[age])`, "2")
	q(t, in, `/site/people/person[age > 26]/name/text()`, "Ada")
	q(t, in, `count(/site/items/item/@price)`, "3")
	q(t, in, `string(/site/items/item[1]/@price)`, "10")
	// reverse and sibling axes
	q(t, in, `/site/items/item[1]/following-sibling::item[1]/name/text()`, "table with gold leaf")
	q(t, in, `/site/items/item[3]/preceding-sibling::item[1]/name/text()`, "table with gold leaf")
	q(t, in, `/site/items/item[3]/preceding-sibling::item[last()]/name/text()`, "chair")
	q(t, in, `count(/site/items/item[2]/ancestor::*)`, "2")
	q(t, in, `/site/items/item[2]/parent::items/../people/person[1]/name/text()`, "Ada")
	q(t, in, `count(/site/people/following::item)`, "3")
	q(t, in, `count(/site/items/preceding::person)`, "3")
}

func TestFLWOR(t *testing.T) {
	in := interp(t)
	q(t, in, `for $p in /site/people/person return $p/name/text()`, "AdaBobCyd")
	q(t, in, `for $p at $i in /site/people/person return ($i, $p/name/text())`, "1Ada2Bob3Cyd")
	q(t, in, `for $p in /site/people/person where $p/age return $p/name/text()`, "AdaBob")
	q(t, in, `for $i in /site/items/item order by number($i/@price) descending return $i/name/text()`,
		"table with gold leaflampchair")
	q(t, in, `for $i in /site/items/item let $n := $i/name where contains($n, "gold") return $n/text()`,
		"table with gold leaf")
	q(t, in, `for $x in (1,2), $y in (10,20) return $x + $y`, "11 21 12 22")
	q(t, in, `let $s := (1,2,3) return count($s)`, "3")
}

func TestJoinsAndQuantifiers(t *testing.T) {
	in := interp(t)
	// value join person names against items (contrived but exercises the path)
	q(t, in, `for $p in /site/people/person, $i in /site/items/item
	          where $p/@id = "person0" and $i/@price = "10"
	          return concat($p/name/text(), "-", $i/name/text())`, "Ada-chair")
	q(t, in, `some $i in /site/items/item satisfies number($i/@price) > 25`, "true")
	q(t, in, `every $i in /site/items/item satisfies number($i/@price) > 25`, "false")
	q(t, in, `some $a in /site/items/item, $b in /site/items/item satisfies $a << $b`, "true")
}

func TestConstructors(t *testing.T) {
	in := interp(t)
	q(t, in, `<out>{count(//item)}</out>`, "<out>3</out>")
	q(t, in, `<a x="{1+1}">t</a>`, `<a x="2">t</a>`)
	q(t, in, `<w>{/site/items/item[1]/name}</w>`, "<w><name>chair</name></w>")
	q(t, in, `for $p in /site/people/person[age] return <p n="{$p/name/text()}"/>`,
		`<p n="Ada"/><p n="Bob"/>`)
	q(t, in, `<m>{1, 2}</m>`, "<m>1 2</m>")
	q(t, in, `<m>{/site/items/item[1]/@price}</m>`, `<m price="10"/>`)
}

func TestUserDefinedFunctions(t *testing.T) {
	in := interp(t)
	q(t, in, `declare function local:twice($x) { 2 * $x }; local:twice(21)`, "42")
	q(t, in, `declare function local:gross($v) { 2.20371 * $v };
	          local:gross(10)`, "22.037100000000002")
	// recursion works in the naive interpreter
	q(t, in, `declare function local:fact($n) { if ($n <= 1) then 1 else $n * local:fact($n - 1) };
	          local:fact(5)`, "120")
}

func TestErrors(t *testing.T) {
	in := interp(t)
	bad := []string{
		`$undeclared`,
		`exactly-one(())`,
		`zero-or-one((1,2))`,
		`one-or-more(())`,
		`nosuchfn(1)`,
		`doc("missing.xml")`,
	}
	for _, src := range bad {
		if _, err := in.Query(src); err == nil {
			t.Errorf("Query(%q) succeeded, want error", src)
		}
	}
}

func TestDocOrderAndDedup(t *testing.T) {
	in := interp(t)
	// union dedups and sorts in document order
	q(t, in, `count(/site/items/item | /site/items/item)`, "3")
	q(t, in, `for $n in (/site/items/item[2] | /site/items/item[1]) return string($n/@id)`, "i0 i1")
	// parent steps dedup: three items share one parent
	q(t, in, `count(/site/items/item/..)`, "1")
}

func TestNodeIdentityOfConstructors(t *testing.T) {
	in := interp(t)
	// two constructions are distinct nodes
	q(t, in, `let $a := <x/> let $b := <x/> return $a is $b`, "false")
	q(t, in, `let $a := <x/> return $a is $a`, "true")
}
