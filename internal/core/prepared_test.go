package core

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"mxq/internal/ralg"
	"mxq/internal/store"
)

func preparedTestEngine(t *testing.T) *Engine {
	t.Helper()
	eng := New(DefaultConfig())
	doc := `<site><item n="1"><price>10</price></item><item n="2"><price>25</price></item><item n="3"><price>40</price></item></site>`
	if err := eng.LoadXML("site.xml", strings.NewReader(doc)); err != nil {
		t.Fatal(err)
	}
	return eng
}

func TestPreparedBindings(t *testing.T) {
	eng := preparedTestEngine(t)
	p, err := eng.Prepare(`declare variable $min external;
		for $i in /site/item where number($i/price) > $min return $i/@n`)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		min  int64
		want string
	}{{0, `n="1"n="2"n="3"`}, {10, `n="2"n="3"`}, {30, `n="3"`}, {100, ``}}
	for _, c := range cases {
		got, err := p.ExecuteString(Bindings{"min": ralg.BindInts(c.min)})
		if err != nil {
			t.Fatalf("min=%d: %v", c.min, err)
		}
		if got != c.want {
			t.Errorf("min=%d: got %q, want %q", c.min, got, c.want)
		}
	}
}

func TestPreparedDefaultsAndGlobals(t *testing.T) {
	eng := preparedTestEngine(t)
	p, err := eng.Prepare(`declare variable $base := count(/site/item);
		declare variable $extra external := 10;
		$base + $extra`)
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := p.ExecuteString(nil); got != "13" {
		t.Errorf("default binding: got %q, want 13", got)
	}
	if got, _ := p.ExecuteString(Bindings{"extra": ralg.BindInts(100)}); got != "103" {
		t.Errorf("explicit binding: got %q, want 103", got)
	}
	// globals may feed later defaults
	p2, err := eng.Prepare(`declare variable $g := 5;
		declare variable $x external := $g * 2;
		$x`)
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := p2.ExecuteString(nil); got != "10" {
		t.Errorf("default over global: got %q, want 10", got)
	}
}

func TestPreparedVarsIntrospection(t *testing.T) {
	eng := preparedTestEngine(t)
	p, err := eng.Prepare(`declare variable $g := 1;
		declare variable $a external;
		declare variable $b external := 2;
		$g + $a + $b`)
	if err != nil {
		t.Fatal(err)
	}
	vars := p.Vars()
	if len(vars) != 2 {
		t.Fatalf("Vars() = %v, want the 2 externals", vars)
	}
	if vars[0].Name != "a" || !vars[0].Required {
		t.Errorf("vars[0] = %+v, want required $a", vars[0])
	}
	if vars[1].Name != "b" || vars[1].Required || !vars[1].Singleton {
		t.Errorf("vars[1] = %+v, want optional singleton $b", vars[1])
	}
}

func TestPreparedErrorSurface(t *testing.T) {
	eng := preparedTestEngine(t)
	// compile-time: reference to an undeclared variable
	if _, err := eng.Prepare(`$nope + 1`); err == nil || !strings.Contains(err.Error(), "XPST0008") {
		t.Errorf("undeclared variable: err = %v, want XPST0008", err)
	}
	// a declaration's default may not reference later declarations
	if _, err := eng.Prepare(`declare variable $a external := $b; declare variable $b external := 1; $a`); err == nil || !strings.Contains(err.Error(), "XPST0008") {
		t.Errorf("forward reference in default: err = %v, want XPST0008", err)
	}
	// parse-time: duplicate declaration
	if _, err := eng.Prepare(`declare variable $x external; declare variable $x external; $x`); err == nil || !strings.Contains(err.Error(), "XQST0049") {
		t.Errorf("duplicate declaration: err = %v, want XQST0049", err)
	}
	p, err := eng.Prepare(`declare variable $x external; declare variable $one external := 1; $x`)
	if err != nil {
		t.Fatal(err)
	}
	// execution-time: required external unbound
	if _, err := p.Execute(nil); err == nil || !strings.Contains(err.Error(), "XPDY0002") {
		t.Errorf("unbound required external: err = %v, want XPDY0002", err)
	}
	// execution-time: binding an undeclared name
	if _, err := p.Execute(Bindings{"x": ralg.BindInts(1), "zzz": ralg.BindInts(2)}); err == nil || !strings.Contains(err.Error(), "XPST0008") {
		t.Errorf("undeclared binding name: err = %v, want XPST0008", err)
	}
	// execution-time: multi-item binding against a singleton default
	if _, err := p.Execute(Bindings{"x": ralg.BindInts(1), "one": ralg.BindInts(1, 2)}); err == nil || !strings.Contains(err.Error(), "XPTY0004") {
		t.Errorf("plural binding for singleton default: err = %v, want XPTY0004", err)
	}
	// a multi-item binding for $x (no default) is fine
	if got, err := p.ExecuteString(Bindings{"x": ralg.BindInts(7, 8, 9)}); err != nil || got != "7 8 9" {
		t.Errorf("sequence binding: got %q, %v", got, err)
	}
}

// TestPreparedConcurrentExecutions is the acceptance check for the
// concurrency contract: one Prepared handle executed from many
// goroutines with different bindings, race-clean, each execution
// seeing its own pool snapshot even while documents load concurrently.
func TestPreparedConcurrentExecutions(t *testing.T) {
	eng := preparedTestEngine(t)
	p, err := eng.Prepare(`declare variable $n external;
		<r>{$n * count(/site/item)}</r>`)
	if err != nil {
		t.Fatal(err)
	}
	const goroutines = 16
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				want := fmt.Sprintf("<r>%d</r>", 3*g)
				got, err := p.ExecuteString(Bindings{"n": ralg.BindInts(int64(g))})
				if err != nil {
					errs <- err
					return
				}
				if got != want {
					errs <- fmt.Errorf("goroutine %d: got %q, want %q", g, got, want)
					return
				}
			}
		}(g)
	}
	// concurrent loads: executions keep their snapshots
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			if err := eng.LoadXML(fmt.Sprintf("extra%d.xml", i), strings.NewReader(`<e/>`)); err != nil {
				errs <- err
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestQueryIsPrepareExecute(t *testing.T) {
	eng := preparedTestEngine(t)
	// Query must flow through the same compile path (one cache entry),
	// and a query with a required external fails through Query since no
	// bindings can be passed.
	if _, err := eng.Query(`declare variable $x external; $x`); err == nil || !strings.Contains(err.Error(), "XPDY0002") {
		t.Errorf("Query with required external: err = %v, want XPDY0002", err)
	}
	if got, err := eng.QueryString(`declare variable $x external := 4; $x + 1`); err != nil || got != "5" {
		t.Errorf("Query with defaulted external: got %q, %v", got, err)
	}
}

// Prepared.Plan and Engine.Compile return the root of the schedule the
// executor runs, not the compiler's root: here a root Sort the optimizer
// drops, grafted onto a path plan already in (iter, pos) order. The
// repository benchmark runs Prepared.Plan through Exec.Run, which must
// give Execute's bytes.
func TestPlanIsTheScheduleRoot(t *testing.T) {
	eng := preparedTestEngine(t)
	const q = `/site/item/price`
	cq, err := eng.parseCompile(q)
	if err != nil {
		t.Fatal(err)
	}
	srt := ralg.NewSort(cq.Plan, "iter", "pos")
	cq.Plan = srt
	st := newCompiled(cq)
	if err := eng.optimizeCompiled(st, q); err != nil {
		t.Fatal(err)
	}
	eng.cache.put(q, st)
	p, err := eng.Prepare(q)
	if err != nil {
		t.Fatal(err)
	}
	root := p.Plan()
	if root == srt || root != st.plan[len(st.plan)-1].Plan {
		t.Fatalf("Prepared.Plan is %s, the executed schedule's root %s", root.Name(), st.plan[len(st.plan)-1].Plan.Name())
	}
	if c, err := eng.Compile(q); err != nil || c != root {
		t.Errorf("Engine.Compile gives %v (%v), Prepared.Plan %s", c, err, root.Name())
	}
	want, err := p.ExecuteString(nil)
	if err != nil {
		t.Fatal(err)
	}
	qp := eng.Pool().Snapshot()
	transient := store.NewContainer("")
	qp.Register(transient)
	ex := ralg.NewExec(qp, transient)
	defer ex.Release()
	ex.ContextDoc = "site.xml"
	tab, err := ex.Run(root)
	if err != nil {
		t.Fatal(err)
	}
	if got := (&Result{Items: tab.Items("item"), pool: qp}).String(); got != want {
		t.Errorf("Exec.Run(Prepared.Plan()) gives %q, Execute %q", got, want)
	}
}
