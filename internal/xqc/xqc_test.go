package xqc

import (
	"strings"
	"testing"

	"mxq/internal/opt"
	"mxq/internal/ralg"
	"mxq/internal/store"
	"mxq/internal/xqp"
)

func compilePlan(t *testing.T, q string, opts Options) ralg.Plan {
	t.Helper()
	m, err := xqp.Parse(q)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Compile(m, opts)
	if err != nil {
		t.Fatal(err)
	}
	return p.Plan
}

func countNodes(p ralg.Plan, pred func(ralg.Plan) bool) int {
	n := 0
	for _, op := range ralg.NewSchedule(p) {
		if pred(op.Plan) {
			n++
		}
	}
	return n
}

const joinQuery = `
	for $p in /site/people/person
	let $a := for $t in /site/closed_auctions/closed_auction
	          where $t/buyer/@person = $p/@id
	          return $t
	return count($a)`

// joinQuery only counts $a, so the inner FLWOR's count plan replaces its
// result: with join recognition the join runs in count mode, without it
// the Cartesian chain is counted; neither keeps the inner back-map (the
// pos2 numbering), only the outer FLWOR's.
func TestJoinRecognitionProducesExistJoin(t *testing.T) {
	backMaps := func(p ralg.Plan) int {
		return countNodes(p, func(p ralg.Plan) bool { r, ok := p.(*ralg.RowNum); return ok && r.Out == "pos2" })
	}
	with := compilePlan(t, joinQuery, DefaultOptions())
	if n := countNodes(with, func(p ralg.Plan) bool { j, ok := p.(*ralg.ExistJoin); return ok && j.Count }); n != 1 {
		t.Errorf("with join recognition: %d count-mode ExistJoins, want 1", n)
	}
	if n := countNodes(with, func(p ralg.Plan) bool { _, ok := p.(*ralg.Cross); return ok }); n > 2 {
		t.Errorf("with join recognition: %d Cross operators (doc-root lifts only expected)", n)
	}
	off := DefaultOptions()
	off.JoinRecognition = false
	without := compilePlan(t, joinQuery, off)
	if n := countNodes(without, func(p ralg.Plan) bool { _, ok := p.(*ralg.ExistJoin); return ok }); n != 0 {
		t.Errorf("without join recognition: %d ExistJoins, want 0", n)
	}
	if w, wo := backMaps(with), backMaps(without); w != 1 || wo != 1 {
		t.Errorf("back-maps: %d with join recognition, %d without; want 1 each", w, wo)
	}
}

// TestJoinRecognitionSyntaxImmune verifies the paper's claim that join
// detection is "immune to syntactic variance": the same join written with
// the comparison sides swapped, or with extra conjuncts, still produces a
// theta-join plan.
func TestJoinRecognitionSyntaxImmune(t *testing.T) {
	variants := []string{
		// sides swapped
		`for $p in /site/people/person
		 let $a := for $t in /site/closed_auctions/closed_auction
		           where $p/@id = $t/buyer/@person return $t
		 return count($a)`,
		// conjunction with a residual filter
		`for $p in /site/people/person
		 let $a := for $t in /site/closed_auctions/closed_auction
		           where $t/buyer/@person = $p/@id and $t/price/text() > 10 return $t
		 return count($a)`,
		// nested for instead of let
		`for $p in /site/people/person, $t in /site/closed_auctions/closed_auction
		 where $t/buyer/@person = $p/@id
		 return $p/name`,
		// theta comparison
		`for $p in /site/people/person
		 let $l := for $i in /site/open_auctions/open_auction/initial
		           where $p/profile/@income > 5000 * exactly-one($i/text()) return $i
		 return count($l)`,
	}
	for i, q := range variants {
		p := compilePlan(t, q, DefaultOptions())
		if n := countNodes(p, func(p ralg.Plan) bool { _, ok := p.(*ralg.ExistJoin); return ok }); n < 1 {
			t.Errorf("variant %d: no ExistJoin in plan", i)
		}
	}
}

func TestJoinRecognitionNotTriggeredOnDependentSequences(t *testing.T) {
	// the inner sequence depends on $p: no join possible
	q := `for $p in /site/people/person
	      let $a := for $t in $p/watches/watch
	                where $t/@open_auction = "open1" return $t
	      return count($a)`
	p := compilePlan(t, q, DefaultOptions())
	if n := countNodes(p, func(p ralg.Plan) bool { _, ok := p.(*ralg.ExistJoin); return ok }); n != 0 {
		t.Errorf("dependent inner sequence produced %d ExistJoins, want 0", n)
	}
}

func TestStepVariantSelection(t *testing.T) {
	// nametest pushdown selects the candidate-list variant
	p := compilePlan(t, `/site/people/person`, DefaultOptions())
	candidate := 0
	for _, op := range ralg.NewSchedule(p) {
		if s, ok := op.Plan.(*ralg.Step); ok && s.Variant == 2 { // scj.CandidateList
			candidate++
		}
	}
	if candidate == 0 {
		t.Error("nametest pushdown did not select candidate-list steps")
	}
	off := DefaultOptions()
	off.NametestPushdown = false
	p = compilePlan(t, `/site/people/person`, off)
	for _, op := range ralg.NewSchedule(p) {
		if s, ok := op.Plan.(*ralg.Step); ok && s.Variant == 2 {
			t.Error("candidate-list step selected with pushdown disabled")
		}
	}
}

func TestCompileErrors(t *testing.T) {
	bad := map[string]string{
		`$x`:          "undeclared variable",
		`doc($x)//a`:  "undeclared variable",
		`nosuch(1)`:   "unknown function",
		`last()`:      "outside a predicate",
		`position()`:  "outside a predicate",
		`concat("a")`: "at least 2",
		`child::a`:    "no context item",
		`declare function local:f($x) { local:f($x) }; local:f(1)`: "recursive",
	}
	for q, frag := range bad {
		m, err := xqp.Parse(q)
		if err != nil {
			t.Fatalf("parse %q: %v", q, err)
		}
		_, err = Compile(m, DefaultOptions())
		if err == nil {
			t.Errorf("Compile(%q) succeeded, want error containing %q", q, frag)
			continue
		}
		if !strings.Contains(err.Error(), frag) {
			t.Errorf("Compile(%q) error %q does not mention %q", q, err, frag)
		}
	}
}

func TestDepsAnalysis(t *testing.T) {
	c := &Compiler{funcs: map[string]*xqp.FuncDecl{}, inlining: map[string]bool{}}
	sc := &scope{
		loop: litLoop1(),
		vars: map[string]*binding{
			"a": {deps: varset{"a": true}},
			"b": {deps: varset{"b": true}},
			"l": {deps: varset{"a": true}}, // a let derived from $a
		},
	}
	cases := []struct {
		q    string
		want []string
	}{
		{`$a/x`, []string{"a"}},
		{`$l`, []string{"a"}},
		{`$a/x = $b/y`, []string{"a", "b"}},
		{`count(/site/x)`, nil},
		{`for $c in $b/x return $c/y`, []string{"b"}},
		{`some $c in $a satisfies $c = $b`, []string{"a", "b"}},
	}
	for _, tc := range cases {
		m, err := xqp.Parse(tc.q)
		if err != nil {
			t.Fatal(err)
		}
		got := c.depsOf(m.Body, sc)
		if len(got) != len(tc.want) {
			t.Errorf("depsOf(%s) = %v, want %v", tc.q, got, tc.want)
			continue
		}
		for _, w := range tc.want {
			if !got[w] {
				t.Errorf("depsOf(%s) = %v, missing %s", tc.q, got, w)
			}
		}
	}
}

// TestOptimizerPreservesPlanSemantics compiles every XMark query with and
// without the optimizer and checks the optimized plan still contains the
// operators the unoptimized one relies on (structure sanity; semantic
// equality is covered by the differential tests in core and xmark).
func TestOptimizedPlansShrinkSorts(t *testing.T) {
	queries := []string{
		`/site/people/person/name/text()`,
		`for $p in /site/people/person return count($p/watches/watch)`,
		joinQuery,
	}
	for _, q := range queries {
		raw := compilePlan(t, q, DefaultOptions())
		rawSorts := countNodes(raw, func(p ralg.Plan) bool {
			s, ok := p.(*ralg.Sort)
			return ok && s.RefinePrefix == 0 && len(s.By) > 1
		})
		optimized := opt.Optimize(compilePlan(t, q, DefaultOptions()))
		optSorts := countNodes(optimized, func(p ralg.Plan) bool {
			s, ok := p.(*ralg.Sort)
			return ok && s.RefinePrefix == 0 && len(s.By) > 1
		})
		if optSorts >= rawSorts {
			t.Errorf("%s: optimizer left %d full multi-column sorts (raw %d)", q, optSorts, rawSorts)
		}
		streaming := countNodes(optimized, func(p ralg.Plan) bool {
			r, ok := p.(*ralg.RowNum)
			return ok && r.Mode != ralg.RankSort
		})
		if streaming == 0 {
			t.Errorf("%s: optimizer selected no streaming/sequential rank modes", q)
		}
	}
}

func TestCompileAllXMarkShapes(t *testing.T) {
	// every construct used by the benchmark queries must compile
	queries := []string{
		`<a b="{1}">{2}</a>`,
		`for $x at $i in (1,2,3) return $i`,
		`some $x in (1,2) satisfies $x = 2`,
		`every $x in (1,2) satisfies $x > 0`,
		`(1, 2)[2]`,
		`/site//open_auction[bidder][1]/@id`,
		`for $x in (3,1,2) order by $x descending return $x`,
		`distinct-values((1,2,2))`,
	}
	for _, q := range queries {
		compilePlan(t, q, DefaultOptions())
	}
}

var _ = store.NewPool // keep the import for helper expansion

func TestFuseDescendantSteps(t *testing.T) {
	// //name compiles to a single descendant step
	p := compilePlan(t, `/site//item`, DefaultOptions())
	steps := 0
	for _, op := range ralg.NewSchedule(p) {
		if _, ok := op.Plan.(*ralg.Step); ok {
			steps++
		}
	}
	if steps != 2 { // child::site + descendant::item
		t.Errorf("//item fused plan has %d steps, want 2", steps)
	}
	// a positional predicate must block the fusion
	p = compilePlan(t, `/site//item[1]`, DefaultOptions())
	steps = 0
	for _, op := range ralg.NewSchedule(p) {
		if _, ok := op.Plan.(*ralg.Step); ok {
			steps++
		}
	}
	if steps != 3 { // child::site + dos::node() + child::item
		t.Errorf("//item[1] plan has %d steps, want 3 (no fusion)", steps)
	}
}

// TestAxesAgree: axisToSCJ converts an axis by value, so xqp and scj
// must list the axes in the same order.
func TestAxesAgree(t *testing.T) {
	for _, name := range []string{"child", "descendant", "descendant-or-self", "self", "parent",
		"ancestor", "ancestor-or-self", "following", "preceding", "following-sibling",
		"preceding-sibling", "attribute"} {
		m, err := xqp.Parse(name + "::x")
		if err != nil {
			t.Fatal(err)
		}
		if got := axisToSCJ(m.Body.(*xqp.Path).Steps[0].Axis).String(); got != name {
			t.Errorf("%s:: maps to %s", name, got)
		}
	}
}
