package core

import (
	"errors"
	"strconv"
	"strings"
	"testing"

	"mxq/internal/naive"
	"mxq/internal/xmark"
	"mxq/internal/xqerr"
)

// mixedKindQueries are sequences that mix elements and attributes:
// unions of both kinds, parent and self steps from such unions, order by
// over them (NaN keys included), and node comparisons between the kinds.
// The generated fuzzer's corpus is also the benchmark's query set, so
// these shapes are pinned here rather than added to it.
var mixedKindQueries = []string{
	`for $n in (//person/@id | //person/name | //person/profile/@income | //person) return name($n)`,
	`for $n in (//bidder/personref/@person | //bidder/increase | //bidder) return name($n)`,
	`for $p in (//person/@id | //person/name)/.. return string($p/@id)`,
	`(//item/@id | //item/name)/parent::item/location/text()`,
	`for $n in (//item/@id | //item/location)/self::node() return concat(name($n), "=", string($n))`,
	`for $n in //open_auction/@id/self::node() return string($n)`,
	`for $n in (//category/@id | //category/name) order by string($n) descending return name($n)`,
	`for $n in (//item/@id | //item/quantity) order by number($n) return string($n)`,
	`for $n in (//person/@id | //person/name) return $n << /site/people/person[2]/name`,
	`count(for $a in //person/@id, $b in (//person | //person/name) where $b << $a or $a is $b return 1)`,
	// an attribute answers ancestor, following and preceding through its
	// owner element, and is its own ancestor-or-self and
	// descendant-or-self under node()
	`count(//person/@id/ancestor::*)`,
	`for $a in //person/@id return count($a/ancestor::*)`,
	`for $n in (//item/@id | //item/name)/ancestor::* return name($n)`,
	`for $n in (//category/@id | //category/name)/ancestor-or-self::node() return name($n)`,
	`for $n in (//category/@id | //category)/descendant-or-self::node() return name($n)`,
	`for $n in //open_auction/@id/descendant-or-self::* return name($n)`,
	`count(//category/@id/following::*)`,
	`for $a in //category/@id return count($a/following::name)`,
	`count(//category/@id/preceding::node())`,
	`for $a in //category/@id return count($a/preceding::*)`,
	`for $n in (//person/@id | //person)/parent::* return name($n)`,
	// a reverse axis numbers its results in reverse document order, from
	// elements and from attributes
	`for $k in //keyword return name($k/ancestor::*[1])`,
	`for $k in //keyword return name($k/ancestor-or-self::*[last()])`,
	`count(//keyword/ancestor::*[1])`,
	`for $b in //bidder return string($b/preceding-sibling::bidder[1]/increase)`,
	`for $b in //bidder return string($b/preceding-sibling::*[last()])`,
	`for $i in //item return name($i/preceding::*[1])`,
	`for $a in //person/@id return name($a/ancestor::*[1])`,
	`for $a in //person/@id return name($a/ancestor-or-self::node()[1])`,
	`for $a in //person/@id return name($a/ancestor::*[last()])`,
	`for $a in //category/@id return name($a/preceding::*[1])`,
	`for $a in //category/@id return count($a/preceding-sibling::node()[1])`,
	`for $n in (//category/@id | //category/name)/preceding::*[1] return name($n)`,
}

// countQueries count FLWORs whose return is a for variable: the count
// plan (the chain's rows per outer iteration, or an existential join in
// count mode) against the pair plan. Every comparison, outer rows with no
// partner, no value or a NaN value, a later where on the outer loop,
// at-variables, two for clauses, a let-bound sequence counted and
// returned, the shapes that keep the pair plan (order by, a path as
// return). None of them raises; raisingCountQueries do.
var countQueries = []string{
	`for $p in /site/people/person return count(for $i in /site/open_auctions/open_auction/initial where $p/profile/@income < 500 * exactly-one($i/text()) return $i)`,
	`for $p in /site/people/person return count(for $i in /site/open_auctions/open_auction/initial where $p/profile/@income <= 300 * $i return $i)`,
	`for $p in /site/people/person let $l := for $i in /site/open_auctions/open_auction/initial where $p/profile/@income > 800 * $i return $i return count($l)`,
	`for $p in /site/people/person return count(for $i in /site/open_auctions/open_auction/initial where 1000 * $i >= $p/profile/@income return $i)`,
	`for $p in /site/people/person return count(for $t in /site/closed_auctions/closed_auction where $t/buyer/@person = $p/@id return $t)`,
	`for $p in /site/people/person return count(for $i in /site/open_auctions/open_auction/initial where floor($i div 10) = floor($p/profile/@income div 1000) return $i)`,
	`for $p in /site/people/person return count(for $i in /site/open_auctions/open_auction/initial where $p/profile/@income > 1000000 * $i return $i)`,
	`for $p in /site/people/person return count(for $i in /site/open_auctions/open_auction/initial where number($p/profile/@income) > 400 * $i return $i)`,
	`for $p in /site/people/person let $l := for $i in /site/open_auctions/open_auction/initial where $p/profile/@income > 900 * $i return $i where $p/profile/@income > 40000 return <n>{count($l)}</n>`,
	`for $p in /site/people/person return count(for $i at $k in /site/open_auctions/open_auction/initial where $p/profile/@income > 700 * $i return $k)`,
	`for $p in /site/people/person return count(for $i in /site/open_auctions/open_auction/initial where $p/profile/@income > 600 * $i and $i > 20 return $i)`,
	`for $p in /site/people/person return count(for $o in /site/open_auctions/open_auction, $b in $o/bidder where $b/personref/@person = $p/@id return $b)`,
	`count(for $a in /site/categories/category, $b in /site/categories/category where $a/@id = $b/@id return $a)`,
	`count(for $p in /site/people/person where empty($p/profile/@income) return $p)`,
	`for $p in /site/people/person let $l := for $t in /site/closed_auctions/closed_auction where $t/buyer/@person = $p/@id return $t return <r n="{count($l)}">{$l/price/text()}</r>`,
	`for $p in /site/people/person return count(for $i in /site/open_auctions/open_auction/initial where $p/profile/@income > 800 * $i order by string($i) return $i)`,
	`for $p in /site/people/person return count(for $i in /site/open_auctions/open_auction/initial where $p/profile/@income > 800 * $i return $i/text())`,
}

// raisingCountQueries are count-plan shapes whose join's right side
// raises: the count plan must keep the check that raises it.
var raisingCountQueries = []string{
	`for $p in /site/people/person return count(for $o in /site/open_auctions/open_auction where $p/profile/@income > 100 * exactly-one($o/bidder[1]/increase) return $o)`,
}

// TestXMarkDifferential is the differential suite on a generated XMark
// document: the engine and the naive DOM oracle must produce
// byte-identical serialized results, or the same error code, for all
// twenty benchmark queries, mixedKindQueries, countQueries and
// raisingCountQueries, including sequence and document order. Only
// raisingCountQueries may raise, and they must. The count queries also
// run on the Cartesian plans of an engine without join recognition.
func TestXMarkDifferential(t *testing.T) {
	cont := xmark.NewStoreContainer("auction.xml", 0.005, 42)
	serial := New(DefaultConfig())
	serial.LoadContainer("auction.xml", cont)
	noJoin := DefaultConfig()
	noJoin.Compiler.JoinRecognition = false
	cartesian := New(noJoin)
	cartesian.LoadContainer("auction.xml", cont)
	oracle := naive.New()
	oracle.LoadContainer("auction.xml", cont)
	var queries []string
	for q := 1; q <= 20; q++ {
		queries = append(queries, xmark.Query(q))
	}
	check := func(query string, raises bool, engines map[string]*Engine) {
		want, err := oracle.QueryString(query)
		wantErr := errCode(err)
		if raises != (wantErr != "") {
			t.Errorf("%.80s: oracle error %q, want an error: %v", query, wantErr, raises)
			return
		}
		for name, eng := range engines {
			got, err := eng.QueryString(query)
			if code := errCode(err); code != wantErr || got != want {
				t.Errorf("%.80s: %s differs from the oracle\n got  %.200q %s\n want %.200q %s", query, name, got, code, want, wantErr)
			}
		}
	}
	engines := map[string]*Engine{"serial": serial}
	for _, query := range append(queries, mixedKindQueries...) {
		check(query, false, engines)
	}
	engines["cartesian"] = cartesian
	for _, query := range countQueries {
		check(query, false, engines)
	}
	for _, query := range raisingCountQueries {
		check(query, true, engines)
	}
}

// errCode is the XQuery error code of err, its text for another error,
// and "" for nil.
func errCode(err error) string {
	var xe *xqerr.Error
	switch {
	case err == nil:
		return ""
	case errors.As(err, &xe):
		return xe.Code
	}
	return err.Error()
}

// Plan cache behavior: LRU eviction holds the cache at
// DefaultPlanCacheSize, dropping the least recently used text first.
func TestPlanCacheLRU(t *testing.T) {
	eng := New(DefaultConfig())
	if err := eng.LoadXML("auction.xml", strings.NewReader(auctionDoc)); err != nil {
		t.Fatal(err)
	}
	first, _ := eng.Compile(`0`)
	last := DefaultPlanCacheSize + 1
	for i := 0; i <= last; i++ {
		if _, err := eng.Compile(strconv.Itoa(i)); err != nil {
			t.Fatal(err)
		}
	}
	if got := eng.cache.len(); got != DefaultPlanCacheSize {
		t.Errorf("cache holds %d plans, want %d", got, DefaultPlanCacheSize)
	}
	// the most recent entry must be a hit and the oldest a miss
	// (pointer identity)
	p1, _ := eng.Compile(strconv.Itoa(last))
	p2, _ := eng.Compile(strconv.Itoa(last))
	if p1 != p2 {
		t.Error("LRU did not retain the most recent plan")
	}
	if again, _ := eng.Compile(`0`); again == first {
		t.Error("LRU kept the least recently used plan past capacity")
	}
}

// TestContextDocumentIsExecutionInput is the regression test for the
// stale-context-document cache hazard: the plan cache is keyed by the
// query text only, and the context document is
// resolved at execution time through the plan's ContextRoot leaf. The
// same cached entry must therefore serve both context documents — one
// plan, two answers — and flipping back must not recompile either.
func TestContextDocumentIsExecutionInput(t *testing.T) {
	eng := New(DefaultConfig())
	if err := eng.LoadXML("a.xml", strings.NewReader(`<r><x/></r>`)); err != nil {
		t.Fatal(err)
	}
	if err := eng.LoadXML("b.xml", strings.NewReader(`<r><x/><x/></r>`)); err != nil {
		t.Fatal(err)
	}
	q := `count(/r/x)`
	prep, err := eng.Prepare(q)
	if err != nil {
		t.Fatal(err)
	}
	got, err := eng.QueryString(q)
	if err != nil {
		t.Fatal(err)
	}
	if got != "1" {
		t.Fatalf("against a.xml: got %q, want 1", got)
	}
	eng.SetContextDocument("b.xml")
	got, err = eng.QueryString(q)
	if err != nil {
		t.Fatal(err)
	}
	if got != "2" {
		t.Errorf("after SetContextDocument: got %q, want 2 (stale cached plan?)", got)
	}
	// one cache entry serves both documents — no per-document recompile
	if n := eng.cache.len(); n != 1 {
		t.Errorf("cache holds %d plans after the context flip, want 1", n)
	}
	// the entry is the very plan prepared up front (pointer identity),
	// and the prepared handle itself follows the flipped context too
	if p2, _ := eng.Prepare(q); p2.cq != prep.cq {
		t.Error("context flip evicted or replaced the cached plan")
	}
	s, err := prep.ExecuteString(nil)
	if err != nil {
		t.Fatal(err)
	}
	if s != "2" {
		t.Errorf("prepared handle after SetContextDocument: got %q, want 2", s)
	}
	eng.SetContextDocument("a.xml")
	if s, _ = prep.ExecuteString(nil); s != "1" {
		t.Errorf("prepared handle after flipping back: got %q, want 1", s)
	}
}

// Results must stay valid after later loads and queries: each query pins
// its own pool snapshot and transient container.
func TestResultOutlivesLaterQueries(t *testing.T) {
	eng := New(DefaultConfig())
	if err := eng.LoadXML("auction.xml", strings.NewReader(auctionDoc)); err != nil {
		t.Fatal(err)
	}
	r1, err := eng.Query(`<x n="{count(//item)}">{/site/people/person[1]/name/text()}</x>`)
	if err != nil {
		t.Fatal(err)
	}
	before := r1.String()
	if _, err := eng.Query(`<y>{count(//person)}</y>`); err != nil {
		t.Fatal(err)
	}
	if err := eng.LoadXML("other.xml", strings.NewReader(`<z/>`)); err != nil {
		t.Fatal(err)
	}
	if after := r1.String(); after != before {
		t.Errorf("result changed after later activity:\n before %q\n after  %q", before, after)
	}
}
