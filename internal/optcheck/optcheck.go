// Package optcheck is the translation validator of the optimizer: it
// checks every individual rewrite the peephole optimizer performs, not
// just the final plan. internal/planck verifies that an optimized plan
// is well-formed; optcheck verifies that each rewrite step preserved
// semantics, by replaying the step's before/after witness (see
// opt.RewriteStep) over small synthesized inputs.
//
// For each witness, the validator asks planck for the inferred schema
// and §4.1 column properties of every input of the rewritten node, and
// synthesizes literal tables that honor exactly those claims — several
// seeds and row counts, including empty and skewed shapes. The inputs
// are substituted into both the before and the after subplan (as
// ralg.LitDecl leaves carrying the claimed properties, so planck and
// the optimizer's own inference accept the substituted plans), both
// sides are executed, and the results must be byte-identical — the
// optimizer's contract is plan equivalence, not set equivalence.
//
// A mismatch is reported as a *RewriteUnsoundError naming the guilty
// rule, after greedily shrinking the failing input to a minimal
// reproducer (dropping rows and columns while the failure persists).
//
// The package complements planck the way a translation validator
// complements a type checker: planck catches rewrites whose output
// violates a static invariant, optcheck catches rewrites that produce
// well-formed but wrong plans.
package optcheck

import (
	"fmt"
	"os"
	"strconv"

	"mxq/internal/opt"
	"mxq/internal/planck"
	"mxq/internal/ralg"
)

// Options parameterizes one validation run.
type Options struct {
	// Seeds are the PRNG seeds used for input synthesis; every
	// (seed, rows) pair yields one input shape per rewrite step.
	Seeds []int64
	// Rows are the requested input sizes (the synthesizer may cap a
	// size when the claimed properties force fewer rows, e.g. a
	// constant key column admits at most one).
	Rows []int
	// Shrink minimizes failing inputs before reporting. Disable for
	// raw speed when only the verdict matters.
	Shrink bool
}

// DefaultOptions returns the standard validation options: three fixed
// seeds plus, when the MXQ_FUZZ_SEED environment variable parses as an
// integer, that seed (the CI job passes a fresh one per run), over
// empty, singleton, small and medium input sizes, with shrinking on.
func DefaultOptions() Options {
	o := Options{
		Seeds:  []int64{1, 42, 20260808},
		Rows:   []int{0, 1, 5, 16},
		Shrink: true,
	}
	if v := os.Getenv("MXQ_FUZZ_SEED"); v != "" {
		if n, err := strconv.ParseInt(v, 10, 64); err == nil {
			o.Seeds = append(o.Seeds, n)
		}
	}
	return o
}

// RewriteUnsoundError reports one rewrite step whose before/after
// subplans disagreed on a synthesized input satisfying all the
// properties the rewrite was justified by.
type RewriteUnsoundError struct {
	// Rule is the registered name of the guilty rewrite.
	Rule opt.Rule
	// Step is the index of the failing step in the validated trace.
	Step int
	// Seed and Rows identify the synthesis shape that exposed the bug.
	Seed int64
	Rows int
	// Msg describes the disagreement (result mismatch, error-code
	// mismatch, or a static-verification failure of the rewritten
	// plan).
	Msg string
	// Repro is the shrunk reproducer: the minimal inputs plus both
	// subplans rendered via planck.Explain.
	Repro string
}

// Error implements error.
func (e *RewriteUnsoundError) Error() string {
	return fmt.Sprintf("optcheck: rule %s unsound (step %d, seed %d, %d rows): %s\n%s",
		e.Rule, e.Step, e.Seed, e.Rows, e.Msg, e.Repro)
}

// ValidateSteps checks every rewrite witness in steps against
// synthesized micro-inputs and returns the first *RewriteUnsoundError
// found, or nil when every step validates. Steps whose inputs planck
// cannot analyze in isolation (or whose claimed properties the
// synthesizer cannot realize) are skipped — validation is best-effort
// per shape, never unsound: a reported failure is always backed by a
// concrete disagreeing input.
func ValidateSteps(steps []opt.RewriteStep, o Options) error {
	if len(steps) == 0 {
		return nil
	}
	d, err := newDomain()
	if err != nil {
		return fmt.Errorf("optcheck: building node domain: %w", err)
	}
	for i, step := range steps {
		if err := d.validateStep(step, i, o); err != nil {
			return err
		}
	}
	return nil
}

// validateStep checks one witness over every (seed, rows) shape.
func (d *domain) validateStep(step opt.RewriteStep, idx int, o Options) error {
	ins := dedupePlans(step.Ins)
	if len(ins) == 0 {
		return nil // leaf rewrite: nothing to substitute
	}
	cls := make([]*claims, len(ins))
	for i, in := range ins {
		infos, err := planck.Analyze(ralg.NewSchedule(in), planck.Config{})
		if err != nil {
			return nil // input not independently verifiable: skip step
		}
		info := infos[len(infos)-1]
		if info.Schema == nil || info.Schema.Any || len(info.Schema.Cols()) == 0 {
			return nil
		}
		cls[i] = claimsOf(info)
	}
	for _, seed := range o.Seeds {
		for _, rows := range o.Rows {
			lits := make([]*ralg.LitDecl, len(ins))
			ok := true
			for i, cl := range cls {
				ld := d.synthInput(cl, rows, seed+int64(i)*7919)
				if ld == nil {
					ok = false
					break
				}
				lits[i] = ld
			}
			if !ok {
				continue // shape not realizable under the claims
			}
			if err := d.checkShape(step, idx, seed, rows, ins, lits, o); err != nil {
				return err
			}
		}
	}
	return nil
}

// checkShape substitutes one synthesized input set into the witness and
// compares both sides, shrinking and reporting on disagreement.
func (d *domain) checkShape(step opt.RewriteStep, idx int, seed int64, rows int, ins []ralg.Plan, lits []*ralg.LitDecl, o Options) error {
	before, after := substitute(step, ins, lits)
	if _, err := planck.Analyze(before, planck.Config{}); err != nil {
		// The synthesized input satisfies the claimed properties, yet
		// the pre-rewrite plan fails static verification: that is a bug
		// in the synthesizer (or a planck/opt inference disagreement),
		// not in the rule — surface it distinctly.
		return fmt.Errorf("optcheck: internal: synthesized input for rule %s (step %d, seed %d, %d rows) invalidates the pre-rewrite plan: %w",
			step.Rule, idx, seed, rows, err)
	}
	ok, msg := d.judge(before, after)
	if ok {
		return nil
	}
	if o.Shrink {
		lits = d.shrink(step, ins, lits)
		before, after = substitute(step, ins, lits)
		if _, m := d.judge(before, after); m != "" {
			msg = m
		}
	}
	return &RewriteUnsoundError{
		Rule:  step.Rule,
		Step:  idx,
		Seed:  seed,
		Rows:  rows,
		Msg:   msg,
		Repro: d.repro(step, ins, lits, before, after),
	}
}

// dedupePlans returns the distinct plans of ins in first-seen order.
func dedupePlans(ins []ralg.Plan) []ralg.Plan {
	out := make([]ralg.Plan, 0, len(ins))
	seen := make(map[ralg.Plan]bool, len(ins))
	for _, in := range ins {
		if in == nil || seen[in] {
			continue
		}
		seen[in] = true
		out = append(out, in)
	}
	return out
}

// substitute wires the synthesized inputs into copies of the witness's
// before and after subplans, numbered once each. One shared copier keeps
// input sharing intact: an input reachable from both sides maps to the
// same literal, and a rewrite whose after IS one of its inputs
// (sort.drop-covered) maps to that input's literal.
func substitute(step opt.RewriteStep, ins []ralg.Plan, lits []*ralg.LitDecl) (before, after ralg.Schedule) {
	c := ralg.NewCopier()
	for i, in := range ins {
		c.Replace(in, lits[i])
	}
	return ralg.NewSchedule(c.Copy(step.Before)), ralg.NewSchedule(c.Copy(step.After))
}
