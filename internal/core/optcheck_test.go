package core

import (
	"strings"
	"testing"
)

// Rewrite tracing must cover prolog parameter initializer plans, not
// just the main plan: this query's main plan is a bare literal (zero
// rewrites), so every witness comes from the initializer's path plan.
func TestRewriteStepsCoverParamInitializers(t *testing.T) {
	eng := New(DefaultConfig())
	steps, err := eng.RewriteSteps(`declare variable $v := /site/regions; 1`)
	if err != nil {
		t.Fatal(err)
	}
	if len(steps) == 0 {
		t.Fatal("no rewrite witnesses from the parameter initializer plan")
	}
	trivial, err := eng.RewriteSteps(`1`)
	if err != nil {
		t.Fatal(err)
	}
	if len(trivial) != 0 {
		t.Fatalf("literal query unexpectedly fired %d rewrites", len(trivial))
	}
}

// A non-order-aware engine performs no rewrites, so there is nothing
// to witness.
func TestRewriteStepsNilWithoutOptimizer(t *testing.T) {
	cfg := DefaultConfig()
	cfg.OrderAware = false
	steps, err := New(cfg).RewriteSteps(`/site/regions`)
	if err != nil {
		t.Fatal(err)
	}
	if steps != nil {
		t.Fatalf("unordered engine produced %d witnesses", len(steps))
	}
}

func TestCheckRewritesEnvOverride(t *testing.T) {
	checkEnvSwitch(t, "MXQ_CHECK_REWRITES", func(e *Engine) bool { return e.checkRewrites })
}

// With MXQ_CHECK_REWRITES on, the traced compile path (parameter
// initializers included) validates and yields the same results as the
// untraced one.
func TestTraceRewritesCompilePath(t *testing.T) {
	const doc = `<site><a n="2">1</a><a n="1">2</a><a n="3">3</a></site>`
	const q = `declare variable $v := /site/a; for $x in $v order by $x/@n return string($x)`

	run := func(cfg Config) string {
		t.Helper()
		eng := New(cfg)
		if err := eng.LoadXML("t.xml", strings.NewReader(doc)); err != nil {
			t.Fatal(err)
		}
		res, err := eng.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		return res.String()
	}

	t.Setenv("MXQ_CHECK_REWRITES", "0")
	plain := run(DefaultConfig())
	t.Setenv("MXQ_CHECK_REWRITES", "1")
	if got := run(DefaultConfig()); got != plain {
		t.Fatalf("traced compile path changed results:\n got %q\nwant %q", got, plain)
	}
}
