package opt

import "mxq/internal/ralg"

// Rule names one rewrite of the peephole optimizer. Every plan mutation
// rewriteNode performs is attributed to exactly one Rule: the name is
// what the translation-validation layer (internal/optcheck) reports
// when a step fails its equivalence check, and what the rule-coverage
// report counts. The rulecheck analyzer (internal/lint) enforces that
// no rewriteNode case mutates a plan without firing a rule.
type Rule string

// The registered rewrite rules of §4.1.
const (
	// RuleSortDropCovered removes a sort whose ordering the input is
	// already known to satisfy (ord covers the sort columns).
	RuleSortDropCovered Rule = "sort.drop-covered"
	// RuleSortStableOneCol reduces a two-column sort to a stable
	// one-column sort when grpord(By[1:], By[0]) holds: rows with equal
	// primary keys keep their input order, which is already sorted on
	// the secondary columns.
	RuleSortStableOneCol Rule = "sort.stable-one-col"
	// RuleSortRefinePrefix turns a full sort into a refine sort: the
	// input is sorted on a prefix of the sort columns, so only runs of
	// equal prefix values are re-sorted.
	RuleSortRefinePrefix Rule = "sort.refine-prefix"
	// RuleRankSeq runs ρ as sequential per-group 1..N numbering on an
	// input already sorted on (Part, OrderBy...).
	RuleRankSeq Rule = "rownum.seq"
	// RuleRankStream runs ρ as streaming hash-based per-group counters
	// when grpord(OrderBy, Part) holds (the paper's called-out case).
	RuleRankStream Rule = "rownum.stream"
)

// RuleInfo describes one registered rule for coverage reports and docs.
type RuleInfo struct {
	Rule Rule
	// Op is the operator class the rule rewrites.
	Op string
	// Doc is a one-line description of the rewrite.
	Doc string
}

// Rules enumerates the registered rewrite rules in stable (reporting)
// order. Adding a rewrite to rewriteNode requires registering it here:
// the optcheck coverage test asserts every registered rule fires on the
// corpus, and rulecheck asserts every rewriteNode case attributes its
// mutations to a rule.
func Rules() []RuleInfo {
	return []RuleInfo{
		{RuleSortDropCovered, "sort", "drop a sort the input order already satisfies"},
		{RuleSortStableOneCol, "sort", "two-column sort to stable one-column sort under grpord"},
		{RuleSortRefinePrefix, "sort", "full sort to refine sort over a sorted prefix"},
		{RuleRankSeq, "rownum", "rank by sequential numbering of a (part, order)-sorted input"},
		{RuleRankStream, "rownum", "rank by streaming per-group counters under grpord"},
	}
}

// RewriteStep is the witness of one fired rewrite: deep copies of the
// rewritten node before and after the mutation, both wired to the same
// copied input subplans. The copies are insulated from later optimizer
// mutations. Ins carries Before's direct inputs so a validator can
// substitute synthesized literal tables for them; the After of a
// dropped operator (sort.drop-covered) is Ins[0] itself.
type RewriteStep struct {
	Rule   Rule
	Before ralg.Plan
	After  ralg.Plan
	Ins    []ralg.Plan
}

// OptimizeTraced numbers the plan rooted at p, optimizes it
// (OptimizeSchedule) and returns the new root. trace is invoked once per
// fired rule, in firing (inputs-first) order, with deep-copied
// before/after subplans; a nil trace costs one nil check per rewrite
// site. It stays for the repository benchmark (bench/), which calls it.
func OptimizeTraced(p ralg.Plan, trace func(RewriteStep)) ralg.Plan {
	s := OptimizeSchedule(ralg.NewSchedule(p), trace)
	return s[len(s)-1].Plan
}

// snap captures the pre-rewrite deep copy of n. The returned copier's
// memo holds the copied input subtrees, so fired can wire the after
// copy to the same input copies. Both returns are nil when tracing is
// off.
func (o *optimizer) snap(n ralg.Plan) (ralg.Plan, *ralg.Copier) {
	if o.trace == nil {
		return nil, nil
	}
	c := ralg.NewCopier()
	return c.CopyNode(n), c
}

// fired emits the witness of one rule application: before is the snap
// copy, after the post-mutation node (or the input the rewrite returned
// in its place). No-op when tracing is off.
func (o *optimizer) fired(rule Rule, before ralg.Plan, c *ralg.Copier, after ralg.Plan) {
	if o.trace == nil {
		return
	}
	o.trace(RewriteStep{Rule: rule, Before: before, After: c.Copy(after), Ins: before.Inputs()})
}
