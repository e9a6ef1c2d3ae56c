package core

import (
	"strings"
	"testing"
	"time"

	"mxq/internal/naive"
	"mxq/internal/opt"
	"mxq/internal/scj"
	"mxq/internal/xqc"
)

const auctionDoc = `<site><regions><europe><item id="i0"><name>chair</name><quantity>1</quantity><description><text>a fine <emph>gold</emph> chair</text></description></item><item id="i1"><name>table</name><quantity>2</quantity><description><parlist><listitem><text>oak</text></listitem><listitem><parlist><listitem><text><emph><keyword>rare</keyword></emph></text></listitem></parlist></listitem></parlist></description></item></europe><asia><item id="i2"><name>lamp</name><quantity>1</quantity><description><text>plain lamp</text></description></item></asia></regions><people><person id="person0"><name>Ada</name><emailaddress>a@x</emailaddress><profile income="120000.5"><age>30</age></profile></person><person id="person1"><name>Bob</name><profile income="40000"><age>25</age></profile><homepage>hp</homepage></person><person id="person2"><name>Cyd</name></person></people><open_auctions><open_auction id="open0"><initial>15.5</initial><bidder><personref person="person0"/><increase>3</increase></bidder><bidder><personref person="person1"/><increase>7.5</increase></bidder><current>26</current><itemref item="i0"/></open_auction><open_auction id="open1"><initial>120</initial><current>120</current><itemref item="i2"/></open_auction></open_auctions><closed_auctions><closed_auction><seller person="person0"/><buyer person="person1"/><itemref item="i1"/><price>55</price></closed_auction><closed_auction><seller person="person2"/><buyer person="person0"/><itemref item="i0"/><price>20</price></closed_auction><closed_auction><seller person="person1"/><buyer person="person0"/><itemref item="i2"/><price>99</price></closed_auction></closed_auctions></site>`

// corpus is the differential-testing query corpus: every query is
// evaluated by the relational engine (in several ablation
// configurations) and by the naive DOM interpreter; results must agree.
var corpus = []string{
	// literals, arithmetic, sequences
	`42`, `3.5 + 1`, `(1, 2, (), 3)`, `10 idiv 3`, `-(2 + 3)`, `1 to 5`,
	`"a" < "b"`, `2 >= 2.0`, `5 != 4`,
	// paths, axes, predicates
	`/site/people/person/name/text()`,
	`/site/people/person[@id = "person1"]/name/text()`,
	`count(//item)`,
	`count(/site//keyword)`,
	`/site/regions/europe/item[2]/name/text()`,
	`/site/regions/europe/item[last()]/name/text()`,
	`/site/people/person[profile]/name/text()`,
	`/site/people/person[profile/@income > 50000]/name/text()`,
	`count(/site/people/person/@id)`,
	`string(/site/open_auctions/open_auction[1]/@id)`,
	`/site/regions//item/name/text()`,
	`count(/site/regions/europe/item[1]/following::item)`,
	`count(/site/regions/asia/item[1]/preceding::item)`,
	`count(/site/open_auctions/open_auction[1]/bidder[1]/following-sibling::bidder)`,
	`count(//keyword/ancestor::item)`,
	`//keyword/ancestor-or-self::keyword/text()`,
	`count(/site/regions/europe/item/../item)`,
	`/site/people/person[2]/parent::people/person[1]/name/text()`,
	`count(//text/descendant-or-self::node())`,
	`count(/site/*)`,
	`count(/site/people/person/*)`,
	// FLWOR
	`for $p in /site/people/person return $p/name/text()`,
	`for $p at $i in /site/people/person return ($i, ":", $p/name/text())`,
	`for $p in /site/people/person where $p/homepage return $p/name/text()`,
	`for $p in /site/people/person where empty($p/homepage/text()) return <person name="{$p/name/text()}"/>`,
	`for $x in (1, 2), $y in (10, 20) return $x + $y`,
	`let $n := count(/site/people/person) return $n * 2`,
	`for $a in /site/open_auctions/open_auction let $bids := $a/bidder return <a id="{$a/@id}">{count($bids)}</a>`,
	`for $i in /site/regions//item order by $i/name/text() return $i/name/text()`,
	`for $i in /site/regions//item order by $i/name/text() descending return $i/name/text()`,
	`for $p in /site/people/person order by number($p/profile/@income) return $p/name/text()`,
	// nested FLWOR and aggregation
	`for $r in /site/regions/* return <region n="{count($r/item)}"/>`,
	`sum(for $a in /site/closed_auctions/closed_auction return $a/price/text() * 1)`,
	`avg(for $a in /site/open_auctions/open_auction return number($a/initial/text()))`,
	`max((1, 5, 3))`, `min((4, 2, 9))`,
	// conditionals and quantifiers
	`for $a in /site/open_auctions/open_auction return if ($a/bidder) then "bid" else "none"`,
	`if (count(//item) > 2) then "many" else "few"`,
	`some $b in /site/open_auctions/open_auction/bidder satisfies $b/increase/text() > 5`,
	`every $b in /site/open_auctions/open_auction/bidder satisfies $b/increase/text() > 5`,
	`some $pr1 in //personref[@person = "person0"], $pr2 in //personref[@person = "person1"] satisfies $pr1 << $pr2`,
	// joins (all syntactic variants must agree)
	`for $p in /site/people/person let $a := for $t in /site/closed_auctions/closed_auction where $t/buyer/@person = $p/@id return $t return <item person="{$p/name/text()}">{count($a)}</item>`,
	`for $p in /site/people/person return <c n="{$p/name/text()}">{count(for $t in /site/closed_auctions/closed_auction where $t/buyer/@person = $p/@id return $t)}</c>`,
	`for $t in /site/closed_auctions/closed_auction, $p in /site/people/person where $t/buyer/@person = $p/@id return $p/name/text()`,
	`for $p in /site/people/person let $l := for $i in /site/open_auctions/open_auction/initial where $p/profile/@income > 5000 * exactly-one($i/text()) return $i return <items name="{$p/name/text()}">{count($l)}</items>`,
	`for $a in /site/closed_auctions/closed_auction, $i in /site/regions//item where $a/itemref/@item = $i/@id return <sale item="{$i/name/text()}" price="{$a/price/text()}"/>`,
	// functions
	`contains(string(exactly-one(/site/regions/europe/item[1]/description)), "gold")`,
	`for $i in /site/regions//item where contains(string(exactly-one($i/description)), "gold") return $i/name/text()`,
	`concat("a", "-", string(count(//item)))`,
	`distinct-values(for $b in //bidder return $b/personref/@person)`,
	`string-length(string(/site/people/person[1]/name/text()))`,
	`number(/site/open_auctions/open_auction[1]/initial/text()) * 2`,
	`floor(3.7)`, `ceiling(3.2)`, `round(3.5)`,
	`data(/site/people/person[1]/name)`,
	`name(/site/regions/*[1])`,
	`zero-or-one(/site/people/person[1]/age)`,
	// constructors
	`<results>{for $p in /site/people/person return <p>{$p/name/text()}</p>}</results>`,
	`<x a="1" b="{1+1}">text {2+3} more</x>`,
	`<wrap>{/site/regions/asia/item/description}</wrap>`,
	`<w>{/site/people/person[1]/@id}</w>`,
	`for $p in /site/people/person return <q income="{$p/profile/@income}"/>`,
	// user-defined functions
	`declare function local:convert($v) { 2.20371 * $v }; for $i in /site/open_auctions/open_auction return local:convert(zero-or-one($i/initial/text()))`,
	`declare function local:grand($a, $b) { $a + 2 * $b }; local:grand(1, 3)`,
	// union, node comparisons, ranges
	`count(/site/regions/europe/item | /site/regions//item)`,
	`/site/people/person[1] is /site/people/person[1]`,
	`/site/people/person[1] << /site/people/person[2]`,
	`for $x in 1 to 3 return $x * $x`,
	// mixed / tricky
	`for $p in /site/people/person return count($p/profile)`,
	`count(/site/people/person[not(homepage)])`,
	`for $a in /site/open_auctions/open_auction where $a/bidder[1]/increase/text() * 2 <= $a/bidder[last()]/increase/text() return <inc/>`,
	`(//item)[2]/name/text()`,
	`for $p in /site/people/person where $p/@id = ("person0", "person2") return $p/name/text()`,
	// value comparisons (empty-propagating)
	`/site/people/person[1]/name/text() eq "Ada"`,
	`2 lt 3`, `"b" ge "a"`, `count(//item) ne 2`,
	`for $p in /site/people/person return $p/age/text() eq "30"`,
	// explicit axes
	`count(//keyword/ancestor-or-self::node())`,
	`//item[2]/preceding-sibling::item/name/text()`,
	`count(/site/open_auctions/following::closed_auction)`,
	`count(//increase/parent::bidder)`,
	`/site/regions/europe/item[1]/self::item/name/text()`,
	`count(//item/descendant::text())`,
	`count(//parlist/descendant-or-self::parlist)`,
	// kind tests
	`count(/site//text())`,
	`count(/site/people/node())`,
	// positions and last()
	`/site/people/person[position() = 2]/name/text()`,
	`/site/people/person[last() - 1]/name/text()`,
	`(//item)[last()]/name/text()`,
	`for $b in //bidder[2] return $b/increase/text()`,
	// nested predicates
	`//open_auction[bidder[personref/@person = "person0"]]/@id`,
	`//person[profile[@income > 100000]]/name/text()`,
	// arithmetic edge cases
	`5 mod 2`, `-3 + 1`, `7 idiv 2`, `1.5 * 2`,
	`sum(())`, `count(())`,
	`avg((1, 2, 6))`,
	// strings
	`starts-with("person12", "person")`,
	`contains("", "")`,
	`concat("", "x", "")`,
	`string(())`,
	`string-length(())`,
	// sequences
	`(1 to 3, 5)`,
	`for $x in (1 to 3) return $x * 10`,
	`empty((//item)[10])`,
	// quantifiers over multiple vars
	`every $x in (1,2), $y in (3,4) satisfies $x < $y`,
	`some $x in (1,2), $y in (2,3) satisfies $x = $y`,
	// conditionals returning node sequences
	`if (//item) then //item[1]/name/text() else "none"`,
	`for $p in /site/people/person return if ($p/homepage) then $p/homepage/text() else "-"`,
	// constructors with mixed content and nesting
	`<out><inner a="{count(//item)}"/>{""}</out>`,
	`<t>{//item[1]/name/text()}{"-"}{//item[2]/name/text()}</t>`,
	`<deep>{<mid>{<leaf/>}</mid>}</deep>`,
	// order by with multiple keys and empties
	`for $p in /site/people/person order by count($p/profile), $p/name/text() return $p/name/text()`,
	`for $i in //item order by $i/quantity/text() descending, $i/name/text() return $i/@id`,
	// union with duplicates and mixed provenance
	`count((//item[1] | //item) | /site/regions/europe/item)`,
	// descendant fusion edge cases: positional predicates must see
	// per-parent child positions, boolean predicates the fused set
	`//item[1]/@id`,
	`//bidder[1]/increase/text()`,
	`count(//listitem[text])`,
	`count(/site//keyword[contains(., "a")])`,
	// UDF composing other features
	`declare function local:pricey($r) { count($r/item[quantity/text() > 1]) };
	 for $r in /site/regions/* return local:pricey($r)`,
}

func configs() map[string]Config {
	full := DefaultConfig()
	noJoin := DefaultConfig()
	noJoin.Compiler.JoinRecognition = false
	noOrder := DefaultConfig()
	noOrder.OrderAware = false
	iter := DefaultConfig()
	iter.Compiler.ChildVariant = scj.Iterative
	iter.Compiler.DescVariant = scj.Iterative
	iter.Compiler.NametestPushdown = false
	zero := Config{Compiler: xqc.Options{}}
	return map[string]Config{
		"full": full, "nojoinrec": noJoin, "noorder": noOrder,
		"iterative": iter, "alloff": zero,
	}
}

func TestDifferentialAgainstNaive(t *testing.T) {
	oracle := naive.New()
	if err := oracle.LoadXML("auction.xml", strings.NewReader(auctionDoc)); err != nil {
		t.Fatal(err)
	}
	for cname, cfg := range configs() {
		eng := New(cfg)
		if err := eng.LoadXML("auction.xml", strings.NewReader(auctionDoc)); err != nil {
			t.Fatal(err)
		}
		for _, q := range corpus {
			want, err := oracle.QueryString(q)
			if err != nil {
				t.Fatalf("oracle failed on %s: %v", q, err)
			}
			got, err := eng.QueryString(q)
			if err != nil {
				t.Errorf("[%s] engine error on %s: %v", cname, q, err)
				continue
			}
			if got != want {
				t.Errorf("[%s] mismatch on %s:\n got  %q\n want %q", cname, q, got, want)
			}
		}
	}
}

func TestEngineErrors(t *testing.T) {
	eng := New(DefaultConfig())
	if err := eng.LoadXML("auction.xml", strings.NewReader(auctionDoc)); err != nil {
		t.Fatal(err)
	}
	bad := []string{
		`$nope`,
		`exactly-one(())`,
		`zero-or-one((1,2))`,
		`unknownfn(3)`,
		`doc("missing.xml")//x`,
		`declare function local:f($x) { local:f($x) }; local:f(1)`, // recursive UDF
	}
	for _, q := range bad {
		if _, err := eng.Query(q); err == nil {
			t.Errorf("Query(%q) succeeded, want error", q)
		}
	}
}

func TestPlanCacheReuse(t *testing.T) {
	eng := New(DefaultConfig())
	if err := eng.LoadXML("auction.xml", strings.NewReader(auctionDoc)); err != nil {
		t.Fatal(err)
	}
	p1, err := eng.Compile(`count(//item)`)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := eng.Compile(`count(//item)`)
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p2 {
		t.Error("plan cache did not reuse the compiled plan")
	}
	// two queries in a row both work (transient container recycling)
	for i := 0; i < 3; i++ {
		if _, err := eng.QueryString(`<x>{count(//item)}</x>`); err != nil {
			t.Fatalf("repeat query %d: %v", i, err)
		}
	}
}

func TestPlanStats(t *testing.T) {
	eng := New(DefaultConfig())
	if err := eng.LoadXML("auction.xml", strings.NewReader(auctionDoc)); err != nil {
		t.Fatal(err)
	}
	ops, joins, err := eng.PlanStats(`for $p in /site/people/person return $p/name/text()`)
	if err != nil {
		t.Fatal(err)
	}
	if ops < 5 {
		t.Errorf("suspiciously small plan: %d ops", ops)
	}
	if joins < 1 {
		t.Errorf("expected at least one join (back-mapping), got %d", joins)
	}
}

// Stacked positional predicates used to blow the optimizer's inferred
// orderings up exponentially (every RowNum/Sort/Cross round multiplied
// the append-only lists): [1][1] took most of a second and [1][1][1]
// did not finish. With set semantics on the property lists the
// orderings grow by a constant per predicate.
func TestStackedPositionalPredicatesPrepareFast(t *testing.T) {
	best := time.Hour
	for _, name := range []string{"a", "b", "c"} { // distinct texts: each misses the plan cache
		eng := New(DefaultConfig())
		if err := eng.LoadXML("auction.xml", strings.NewReader(auctionDoc)); err != nil {
			t.Fatal(err)
		}
		start := time.Now()
		p, err := eng.Prepare("/site/" + name + "[1][1][1][1][1]")
		if err != nil {
			t.Fatal(err)
		}
		best = min(best, time.Since(start))
		for _, pr := range opt.InferProps(p.Plan()) {
			if n := len(pr.Ords()); n > 150 {
				t.Fatalf("a plan node carries %d inferred orderings", n)
			}
		}
	}
	// the best of three absorbs a descheduled attempt (16 ms under -race)
	if best > 50*time.Millisecond {
		t.Errorf("prepare took %v, want < 50ms", best)
	}
}
