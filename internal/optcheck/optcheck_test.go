package optcheck_test

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"mxq/internal/core"
	"mxq/internal/opt"
	"mxq/internal/optcheck"
	"mxq/internal/qgen"
	"mxq/internal/ralg"
	"mxq/internal/xmark"
	"mxq/internal/xqt"
)

// The rule-coverage corpus: the twenty XMark benchmark queries plus
// five hundred generator-drawn ones (the differential fuzzer's input
// distribution, every third one parameterized). Compiled once and
// shared between the soundness and the coverage test.
var (
	corpusOnce   sync.Once
	corpusTraces [][]opt.RewriteStep
	corpusErr    error
)

func corpus(t *testing.T) [][]opt.RewriteStep {
	t.Helper()
	corpusOnce.Do(func() {
		eng := core.New(core.DefaultConfig())
		add := func(label, q string) {
			if corpusErr != nil {
				return
			}
			steps, err := eng.RewriteSteps(q)
			if err != nil {
				corpusErr = fmt.Errorf("%s rejected: %w\nquery: %s", label, err, q)
				return
			}
			corpusTraces = append(corpusTraces, steps)
		}
		for i, q := range xmark.Queries {
			add(fmt.Sprintf("XMark Q%d", i+1), q)
		}
		roots := []string{"/site", `doc("b.xml")/site`, `collection("xm")/site`, `collection("xm")`}
		g := qgen.New(20260807, roots)
		for i := 0; i < 500; i++ {
			var q string
			if i%3 == 2 {
				q = g.BoundQuery().Query
			} else {
				q = g.Query()
			}
			add(fmt.Sprintf("generated query %d", i), q)
		}
	})
	if corpusErr != nil {
		t.Fatal(corpusErr)
	}
	return corpusTraces
}

// Every rewrite the optimizer performs on the corpus must survive
// translation validation: before/after replays over synthesized
// micro-inputs honoring exactly the claimed §4.1 properties.
func TestCorpusRewritesSound(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus validation takes ~30s")
	}
	opts := optcheck.DefaultOptions()
	for i, steps := range corpus(t) {
		if err := optcheck.ValidateSteps(steps, opts); err != nil {
			t.Fatalf("corpus query %d: %v", i, err)
		}
	}
}

// Every registered rule must fire somewhere on the corpus — a rule
// with zero firings is a test gap (missing corpus query) or dead code
// (unsatisfiable guard), and either finding fails here. Exemptions
// require a stated reason.
func TestRuleCoverageFloor(t *testing.T) {
	cov := optcheck.NewCoverage()
	for _, steps := range corpus(t) {
		cov.Add(steps)
	}
	exempt := map[opt.Rule]string{
		// (none: every registered rule is exercised by the corpus)
	}
	if unfired := cov.Unfired(exempt); len(unfired) > 0 {
		t.Fatalf("registered rules never fired on the corpus:\n%s", cov.Report())
	}
	t.Logf("rule coverage over %d corpus queries:\n%s", len(corpusTraces), cov.Report())
}

// unsortedLit is a literal whose "a" column is distinct but unsorted —
// the optimizer's inference claims key(a) for it, never ord(a).
func unsortedLit() *ralg.Lit {
	tab := ralg.NewTable(nil, nil)
	tab.AddCol("a", ralg.BindInts(3, 1, 5, 2, 4))
	tab.AddCol("item", ralg.ItemsOf(xqt.Int(10), xqt.Int(20), xqt.Int(30), xqt.Int(40), xqt.Int(50)))
	return &ralg.Lit{Tab: tab}
}

// A deliberately unsound rewrite — dropping a sort whose ordering the
// input does NOT satisfy — must be caught, attributed to its rule, and
// shrunk to a minimal reproducer (two rows suffice to witness a wrong
// sort drop; the unused item column is shed).
func TestBrokenSortDropCaughtAndShrunk(t *testing.T) {
	in := unsortedLit()
	before := ralg.NewSort(in, "a")
	step := opt.RewriteStep{
		Rule:   "test.broken-sort-drop",
		Before: before,
		After:  in,
		Ins:    before.Inputs(),
	}
	err := optcheck.ValidateSteps([]opt.RewriteStep{step}, optcheck.DefaultOptions())
	var ue *optcheck.RewriteUnsoundError
	if !errors.As(err, &ue) {
		t.Fatalf("broken rewrite not caught, got: %v", err)
	}
	if ue.Rule != "test.broken-sort-drop" {
		t.Errorf("blamed rule %q, want test.broken-sort-drop", ue.Rule)
	}
	if ue.Msg != "results differ" {
		t.Errorf("unexpected disagreement message %q", ue.Msg)
	}
	for _, want := range []string{"rule: test.broken-sort-drop", "input 0 (2 rows)", "before:", "after:"} {
		if !strings.Contains(ue.Repro, want) {
			t.Errorf("reproducer missing %q:\n%s", want, ue.Repro)
		}
	}
	if strings.Contains(ue.Repro, "item") {
		t.Errorf("shrinker kept the irrelevant item column:\n%s", ue.Repro)
	}
}

// A rewrite whose output violates a static invariant — forcing the
// sequential rank mode onto an input whose order cannot justify it —
// is refuted by planck without needing execution, and still attributed
// to its rule.
func TestPlanckRefutedRewriteCaught(t *testing.T) {
	in := unsortedLit()
	before := ralg.NewRowNum(in, "rk", []string{"a"}, "")
	after := ralg.NewRowNum(in, "rk", []string{"a"}, "")
	after.Mode = ralg.RankSeq
	step := opt.RewriteStep{
		Rule:   "test.broken-rankseq",
		Before: before,
		After:  after,
		Ins:    before.Inputs(),
	}
	err := optcheck.ValidateSteps([]opt.RewriteStep{step}, optcheck.DefaultOptions())
	var ue *optcheck.RewriteUnsoundError
	if !errors.As(err, &ue) {
		t.Fatalf("planck-refutable rewrite not caught, got: %v", err)
	}
	if ue.Rule != "test.broken-rankseq" {
		t.Errorf("blamed rule %q, want test.broken-rankseq", ue.Rule)
	}
	if !strings.Contains(ue.Msg, "static verification") {
		t.Errorf("expected a static-verification refutation, got %q", ue.Msg)
	}
}

// A sound hand-built step — the witness shape the optimizer emits for
// a justified sort drop — validates cleanly: the synthesized inputs
// honor the declared ordering, so both sides agree.
func TestSoundSortDropValidates(t *testing.T) {
	tab := ralg.NewTable(nil, nil)
	tab.AddCol("a", ralg.BindInts(1, 2, 3))
	in := &ralg.LitDecl{Tab: tab, Ords: [][]string{{"a"}}, Key: []string{"a"}}
	before := ralg.NewSort(in, "a")
	step := opt.RewriteStep{
		Rule:   "test.sound-sort-drop",
		Before: before,
		After:  in,
		Ins:    before.Inputs(),
	}
	if err := optcheck.ValidateSteps([]opt.RewriteStep{step}, optcheck.DefaultOptions()); err != nil {
		t.Fatalf("sound rewrite rejected: %v", err)
	}
}

// Coverage bookkeeping: counts per rule, registry-ordered report with
// unfired rules marked, exemptions honored.
func TestCoverageReport(t *testing.T) {
	cov := optcheck.NewCoverage()
	cov.Add([]opt.RewriteStep{{Rule: opt.RuleSortDropCovered}, {Rule: opt.RuleSortDropCovered}, {Rule: opt.RuleRankSeq}})
	if got := cov.Count(opt.RuleSortDropCovered); got != 2 {
		t.Errorf("Count(sort.drop-covered) = %d, want 2", got)
	}
	rep := cov.Report()
	if !strings.Contains(rep, "! "+string(opt.RuleRankStream)) && !strings.Contains(rep, "!") {
		t.Errorf("report does not mark unfired rules:\n%s", rep)
	}
	unfired := cov.Unfired(map[opt.Rule]string{opt.RuleRankStream: "exercised elsewhere"})
	for _, r := range unfired {
		if r == opt.RuleRankStream {
			t.Errorf("exempt rule reported unfired")
		}
		if r == opt.RuleSortDropCovered || r == opt.RuleRankSeq {
			t.Errorf("fired rule %s reported unfired", r)
		}
	}
	if len(unfired) != len(opt.Rules())-3 {
		t.Errorf("Unfired returned %d rules, want %d", len(unfired), len(opt.Rules())-3)
	}
}
