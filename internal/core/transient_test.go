package core

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync"
	"testing"

	"mxq/internal/faults"
	"mxq/internal/ralg"
	"mxq/internal/sched"
	"mxq/internal/xmark"
	"mxq/internal/xqerr"
)

// TestTransientContainerSizedOnce: a statement remembers how many
// transient rows its last successful execution built, so from the
// second execution on — through any handle or one-shot query of the
// same text — no element constructor regrows the container.
func TestTransientContainerSizedOnce(t *testing.T) {
	e := xmarkEngine(t, DefaultConfig(), 0.01)
	p, err := e.Prepare(xmark.Query(10))
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Execute(nil)
	if err != nil {
		t.Fatal(err)
	}
	want, first := res.String(), res.Stats
	if first.TransientRows == 0 || first.TransientRegrows == 0 {
		t.Fatalf("first execution: %d transient rows, %d regrows; Q10's second constructor should outgrow the first one's reservation", first.TransientRows, first.TransientRegrows)
	}
	if got := p.cq.transientRows.Load(); got != first.TransientRows {
		t.Fatalf("statement remembers %d rows, the execution built %d", got, first.TransientRows)
	}
	for _, run := range []func() (*Result, error){
		func() (*Result, error) { return p.Execute(nil) },
		func() (*Result, error) { return e.Query(xmark.Query(10)) }, // same text, same cached statement
	} {
		got, err := run()
		if err != nil || got.String() != want {
			t.Fatalf("sized execution: err=%v, identical=%v", err, err == nil && got.String() == want)
		}
		if st := got.Stats; st.TransientRegrows != 0 || st.TransientRows != first.TransientRows {
			t.Fatalf("sized execution: %d rows (want %d), %d regrows (want 0)", st.TransientRows, first.TransientRows, st.TransientRegrows)
		}
	}
}

// A nest of direct constructors is built in one pass: Q10's <personne>
// and its eleven nested elements are one constructor, so nothing is
// copied into each enclosing level and no content list is unioned,
// sorted and renumbered. Both constructors are only serialized, so they
// write XML: each <personne> and each <categorie> is one row standing
// for its bytes in the slab, a <categorie> copies the bytes of its
// <personne>s, and no row is copied. The counters are exact, so a change
// that brings back a row per element or per content item, a per-level
// copy, or a copy of content, fails here on any machine.
func TestNestedConstructorsBuildOnce(t *testing.T) {
	e := New(DefaultConfig())
	e.LoadContainer("auction.xml", xmark.NewStoreContainer("auction.xml", 0.04, 7))
	res, err := e.Query(xmark.Query(10))
	if err != nil {
		t.Fatal(err)
	}
	st, out := res.Stats, len(res.String())
	if st.TransientRows != 1250 || st.CopiedRows != 0 || st.SortedRows > 11299 || st.FullSorts > 13 {
		t.Errorf("Q10 at factor 0.04: %d transient rows (%d copied), %d sorted rows, %d full sorts; want 1 250 (0 copied), at most 11 299 and 13",
			st.TransientRows, st.CopiedRows, st.SortedRows, st.FullSorts)
	}
	if st.XMLBytes <= int64(out) || st.XMLBytes >= 2*int64(out) {
		t.Errorf("Q10 wrote %d bytes of XML for %d bytes of output; want each output byte written once into a <personne> and once into a <categorie>", st.XMLBytes, out)
	}
}

const elemsQuery = `declare variable $n external; for $i in 1 to $n return <a>{$i}</a>`

// The figure is the last value, not the maximum: a binding that once
// built a large result does not pin a large reservation.
func TestTransientFigureFollowsTheBinding(t *testing.T) {
	e := New(DefaultConfig())
	p, err := e.Prepare(elemsQuery)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int64{5000, 3, 700} {
		res, err := p.ExecuteString(Bindings{"n": ralg.BindInts(n)})
		if err != nil {
			t.Fatal(err)
		}
		// one row per element, which the statement only serializes: its XML is in the slab
		if rows, bytes := p.cq.transientRows.Load(), p.cq.transientBytes.Load(); rows != n || bytes != int64(len(res)) {
			t.Fatalf("$n = %d: statement remembers %d rows and %d bytes, want %d and %d", n, rows, bytes, n, len(res))
		}
	}
}

// The remembered room is taken by the first constructor that builds
// something, not before the plan runs: an execution whose binding builds
// nothing allocates what a statement with nothing to remember does,
// whatever its last execution built.
func TestTransientRoomOnlyWhenBuilding(t *testing.T) {
	e := New(DefaultConfig())
	var last *Result
	exec := func(q string, n int64) (kb int64) {
		p, err := e.Prepare(q)
		if err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if last, err = p.Execute(Bindings{"n": ralg.BindInts(n)}); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return int64(after.TotalAlloc-before.TotalAlloc) >> 10
	}
	control := strings.Replace(elemsQuery, "a>", "b>", 2) // same plan shape, never builds
	exec(control, 0)
	exec(elemsQuery, 20000) // remembers 20 000 rows and 229 KB of XML: 1.1 MB of columns and slab
	if idle, kb := exec(control, 0), exec(elemsQuery, 0); kb > idle+400 {
		t.Fatalf("an execution that builds nothing allocated %d KB, %d KB with nothing remembered", kb, idle)
	}
	exec(elemsQuery, 20000)
	if idle, kb := exec(control, 0), exec(elemsQuery, 20000); kb < idle+1400 || last.Stats.TransientRegrows != 0 {
		t.Fatalf("a building execution allocated %d KB (%d KB idle) with %d regrows; it should take the remembered room once", kb, idle, last.Stats.TransientRegrows)
	}
}

// Sixteen executions of one statement share the figure without a race
// (run under -race by make check) and each gets its own result.
func TestTransientFigureConcurrent(t *testing.T) {
	e := New(DefaultConfig())
	p, err := e.Prepare(elemsQuery)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for c := int64(1); c <= 16; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < 20; r++ {
				got, err := p.ExecuteString(Bindings{"n": ralg.BindInts(40 * c)})
				if err != nil || strings.Count(got, "<a>") != int(40*c) {
					t.Errorf("client %d: err=%v, %d elements", c, err, strings.Count(got, "<a>"))
					return
				}
			}
		}()
	}
	wg.Wait()
	if got := p.cq.transientRows.Load(); got%40 != 0 || got < 40 || got > 16*40 {
		t.Fatalf("statement remembers %d rows, not the figure of any one execution", got)
	}
}

// An execution that does not succeed — cancelled, over budget, failed by
// an injected error or a contained panic — never writes the figure.
func TestTransientFigureIgnoresFailedExecutions(t *testing.T) {
	t.Cleanup(faults.Reset)
	cfg := DefaultConfig()
	cfg.Scheduler = sched.New(sched.Config{MemPerQuery: 1 << 20})
	e := New(cfg)
	p, err := e.Prepare(elemsQuery)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Execute(Bindings{"n": ralg.BindInts(50)}); err != nil {
		t.Fatal(err)
	}
	unchanged := func(path string) {
		t.Helper()
		if got := p.cq.transientRows.Load(); got != 50 {
			t.Fatalf("%s: the figure moved to %d", path, got)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := p.ExecuteContext(ctx, Bindings{"n": ralg.BindInts(7)}); err == nil {
		t.Fatal("cancelled execution succeeded")
	}
	unchanged("cancelled")
	if _, err := p.Execute(Bindings{"n": ralg.BindInts(1 << 20)}); err == nil {
		t.Fatal("a million elements fit a 1 MiB budget")
	}
	unchanged("over budget")
	for _, mode := range []faults.Mode{faults.ModeError, faults.ModePanic, faults.ModeCancel} {
		if err := faults.Enable("ralg.op", 1, 7, mode); err != nil {
			t.Fatal(err)
		}
		if _, err := p.Execute(Bindings{"n": ralg.BindInts(9)}); err == nil {
			t.Fatalf("fault mode %v: execution succeeded", mode)
		}
		faults.Reset()
		unchanged("injected fault")
	}
	if _, err := p.Execute(Bindings{"n": ralg.BindInts(9)}); err != nil || p.cq.transientRows.Load() != 9 {
		t.Fatalf("after the faults: err=%v, figure %d, want 9", err, p.cq.transientRows.Load())
	}
}

// The transient container is a row store like any column: forty copies
// of the regions subtree (16 MB of structural rows at factor 0.02) do
// not fit a 2 MiB budget, however few items the query returns; a small
// constructor still does.
func TestTransientContainerIsBudgeted(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Scheduler = sched.New(sched.Config{MemPerQuery: 2 << 20})
	e := xmarkEngine(t, cfg, 0.02)
	res, err := e.Query(`count(for $i in (1 to 40) return <r>{/site/regions}</r>/regions)`)
	if !xqerr.IsResourceLimit(err) || res != nil {
		t.Fatalf("forty copied subtrees under 2 MiB: err = %v, result %v", err, res)
	}
	if got, err := e.QueryString(`count(for $i in (1 to 40) return <r>{/site/regions/africa/item[1]/name}</r>)`); err != nil || got != "40" {
		t.Fatalf("a small constructor under the same budget: %q, %v", got, err)
	}
}

// fn:count reads no item of its argument, so forty counted constructors
// are only serialized: each writes its XML, one row, nothing copied.
func TestCountedConstructorsBuildByReference(t *testing.T) {
	e := xmarkEngine(t, DefaultConfig(), 0.001)
	res, err := e.Query(`count(for $i in (1 to 40) return <r>{/site/regions}</r>)`)
	if err != nil {
		t.Fatal(err)
	}
	one, err := e.QueryString(`<r>{/site/regions}</r>`)
	if err != nil {
		t.Fatal(err)
	}
	if st := res.Stats; st.TransientRows != 40 || st.CopiedRows != 0 || st.XMLBytes != 40*int64(len(one)) {
		t.Errorf("%d transient rows (%d copied) and %d bytes of XML, want 40 (0 copied) and %d", st.TransientRows, st.CopiedRows, st.XMLBytes, 40*len(one))
	}
}

// A constructor whose trees are only serialized writes them as XML; one
// that is navigated builds rows. Every shape of content must serialize
// to the same bytes — and raise the same error — both ways: each query
// runs as it is (written, XMLBytes > 0) and under a self::node() step,
// which makes its constructors build rows (XMLBytes 0).
func TestWrittenConstructorsSerializeLikeCopies(t *testing.T) {
	e := New(DefaultConfig())
	for name, doc := range map[string]string{
		"d.xml": `<r><!--a comment--><?target some data?><t a="x&amp;&quot;y&lt;z&gt;">1 &lt; 2 &amp; 3 &gt; 0 "q"</t><u/></r>`,
		"n.xml": `<r><a>1</a><a>2</a><a>3</a></r>`,
	} {
		if err := e.LoadXML(name, strings.NewReader(doc)); err != nil {
			t.Fatal(err)
		}
	}
	for _, q := range []string{
		// document-node content, and several iterations of one constructor
		`<a>{doc("d.xml")}</a>`,
		`for $n in doc("n.xml")//a return <e k="{$n}">{$n}{doc("n.xml")}</e>`,
		// attributes taken from content, beside literal ones and in a nested element
		`<a>{doc("d.xml")//t/@a}{1}</a>`,
		`<a x="{1}">{doc("d.xml")//t/@a}<b>{doc("d.xml")//t/@a}</b></a>`,
		`for $i in 1 to 3 return <a>{doc("d.xml")//t/@a}{()}{$i}</a>`,
		// empty and adjacent atoms, and empty elements
		`<a>{()}</a>`,
		`<a>{""}</a>`,
		`<a>{("", "")}</a>`,
		`<a>x{1}{(2, 3)}y{""}{("", 4)}</a>`,
		`<a>{()}<b>{()}</b><c/>{""}</a>`,
		`for $i in 1 to 4 return <a>{for $j in 1 to $i return $j}</a>`,
		// text and attribute values that need escaping
		`<a b="{doc("d.xml")//t/@a}" c="&lt;&amp;&quot;">{string(doc("d.xml")//t)}{"<&amp;>"}</a>`,
		`<a>{doc("d.xml")//t}{doc("d.xml")//t/text()}</a>`,
		// comments and processing instructions
		`<a>{doc("d.xml")//comment()}{doc("d.xml")//processing-instruction()}</a>`,
		// nested constructors: in one template, and one constructor's
		// trees the content of another, several levels deep
		`<a><b>{1}</b>{2}<c><d/>{doc("n.xml")//a[2]}</c></a>`,
		`<o>{for $i in 1 to 3 return <i n="{$i}">{$i}<j>{<k>{$i}</k>}</j></i>}</o>`,
		`for $i in 1 to 2 return <o>{for $j in 1 to $i return <p>{$j}</p>}</o>`,
		// content a navigated constructor built as rows
		`let $c := <c>{doc("n.xml")/r/a}</c> return <r n="{count($c/a)}">{$c}</r>`,
		// the errors of content attributes
		`<a><b/>{doc("d.xml")//t/@a}</a>`,
		`<a>x{doc("d.xml")//t/@a}</a>`,
		`<a a="1">{doc("d.xml")//t/@a}</a>`,
		`<a>{doc("d.xml")//t/@a}{doc("d.xml")//t/@a}</a>`,
	} {
		code := func(err error) string {
			var xe *xqerr.Error
			if errors.As(err, &xe) {
				return xe.Code
			}
			return ""
		}
		written, werr := e.Query(q)
		rows, rerr := e.Query("(" + q + ")/self::node()")
		switch {
		case werr != nil || rerr != nil:
			if code(werr) != code(rerr) || code(werr) == "" {
				t.Errorf("%s: written %v, as rows %v", q, werr, rerr)
			}
		case written.String() != rows.String():
			t.Errorf("%s: written %s, as rows %s", q, written, rows)
		case written.Stats.XMLBytes == 0 || rows.Stats.XMLBytes != 0:
			t.Errorf("%s: %d bytes of XML written, %d as rows; want some and none", q, written.Stats.XMLBytes, rows.Stats.XMLBytes)
		}
	}
}
