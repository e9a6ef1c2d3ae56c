package core

import (
	"errors"
	"strings"
	"testing"

	"mxq/internal/planck"
	"mxq/internal/qgen"
	"mxq/internal/ralg"
	"mxq/internal/xmark"
	"mxq/internal/xqc"
)

// verifyConfigs are the compile pipelines the verifier must accept:
// with and without the order-aware optimizer (the verifier runs before
// and after optimization, so both plan shapes are checked). It turns
// the verifier on for the rest of the test.
func verifyConfigs(t *testing.T) map[string]Config {
	t.Setenv("MXQ_VERIFY_PLANS", "1")
	unordered := DefaultConfig()
	unordered.OrderAware = false
	nojoin := DefaultConfig()
	nojoin.Compiler.JoinRecognition = false
	return map[string]Config{"ordered": DefaultConfig(), "unordered": unordered, "nojoinrec": nojoin}
}

// All twenty XMark benchmark plans must verify with zero violations,
// before and after optimization.
func TestPlanckVerifiesXMarkPlans(t *testing.T) {
	for cname, cfg := range verifyConfigs(t) {
		eng := New(cfg)
		for i, q := range xmark.Queries {
			if _, err := eng.Compile(q); err != nil {
				t.Errorf("[%s] XMark Q%d rejected: %v", cname, i+1, err)
			}
		}
	}
}

// Five hundred generator-drawn queries (the differential fuzzer's
// input distribution, including parameterized ones) must all produce
// verifiable plans.
func TestPlanckVerifiesGeneratedPlans(t *testing.T) {
	const n = 500
	roots := []string{"/site", `doc("b.xml")/site`, `collection("xm")/site`, `collection("xm")`}
	for cname, cfg := range verifyConfigs(t) {
		eng := New(cfg)
		g := qgen.New(20260807, roots)
		for i := 0; i < n; i++ {
			var q string
			if i%3 == 2 {
				q = g.BoundQuery().Query
			} else {
				q = g.Query()
			}
			if _, err := eng.Compile(q); err != nil {
				t.Errorf("[%s] generated query %d rejected: %v\nquery: %s", cname, i, err, q)
			}
		}
	}
}

// A deliberately corrupted plan is rejected at compile time with a
// PlanInvariantError naming the offending operator — not by a runtime
// panic when the executor trips over it.
func TestCorruptedPlanRejectedAtCompileTime(t *testing.T) {
	eng := New(verifyConfigs(t)["ordered"])
	cq, err := eng.compile(`1 + 2`)
	if err != nil {
		t.Fatal(err)
	}
	// graft a Select over a non-boolean column onto the compiled plan
	corrupted := &ralg.Select{Cond: "iter"}
	corrupted.SetInput(0, cq.root())
	err = eng.verifyCompiled(newCompiled(&xqc.Compiled{Plan: corrupted}))
	var pie *planck.PlanInvariantError
	if !errors.As(err, &pie) {
		t.Fatalf("corrupted plan not rejected: %v", err)
	}
	if pie.Op != corrupted.Name() {
		t.Errorf("violation blamed on %q, want %q", pie.Op, corrupted.Name())
	}
}

// checkEnvSwitch asserts how New reads a plan-check switch.
// MXQ_VERIFY_PLANS and MXQ_CHECK_REWRITES are the plan checks' only
// switches, read with strconv.ParseBool when the engine is built: what
// it reads as false is off, and a value it rejects is on — a typo must
// not silently drop a safety check.
func checkEnvSwitch(t *testing.T, name string, on func(*Engine) bool) {
	t.Helper()
	for _, tc := range []struct {
		val string
		on  bool
	}{
		{"", false}, {"0", false}, {"false", false}, {"FALSE", false}, {"f", false},
		{"1", true}, {"true", true}, {"yes", true},
	} {
		t.Setenv(name, tc.val)
		if got := on(New(DefaultConfig())); got != tc.on {
			t.Errorf("%s=%q: switch on = %v, want %v", name, tc.val, got, tc.on)
		}
	}
}

func TestVerifyPlansEnvOverride(t *testing.T) {
	checkEnvSwitch(t, "MXQ_VERIFY_PLANS", func(e *Engine) bool { return e.verify })
}

// ExplainPlan renders the optimized plan with schema and property
// annotations, including prolog parameter initializers.
func TestExplainPlan(t *testing.T) {
	eng := New(DefaultConfig())
	s, err := eng.ExplainPlan(`declare variable $n := 2; 1 + $n`)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"$n :=", "item:", "add("} {
		if !strings.Contains(s, want) {
			t.Errorf("explain output missing %q:\n%s", want, s)
		}
	}
}
