package optcheck

import (
	"mxq/internal/opt"
	"mxq/internal/planck"
	"mxq/internal/ralg"
)

// shrink greedily minimizes a failing input set: per input it halves
// the row prefix, then drops individual rows, then drops columns, and
// repeats until no single reduction keeps the failure alive. Every
// candidate is re-validated — its declared properties must still hold
// (planck checks each against the rows), the pre-rewrite plan must
// still pass static verification (a column the operator reads cannot
// be dropped), and the before/after disagreement must persist. Each acceptance strictly reduces rows+columns, so the
// loop terminates.
func (d *domain) shrink(step opt.RewriteStep, ins []ralg.Plan, lits []*ralg.LitDecl) []*ralg.LitDecl {
	cur := append([]*ralg.LitDecl(nil), lits...)
	accept := func(k int, cand *ralg.LitDecl) bool {
		if planck.Verify(cand, planck.Config{}) != nil {
			return false
		}
		trial := append([]*ralg.LitDecl(nil), cur...)
		trial[k] = cand
		before, after := substitute(step, ins, trial)
		if _, err := planck.Analyze(before, planck.Config{}); err != nil {
			return false
		}
		if ok, _ := d.judge(before, after); ok {
			return false
		}
		cur = trial
		return true
	}
	for changed := true; changed; {
		changed = false
		for k := range cur {
			for cur[k].Tab.N > 0 && accept(k, prefixLit(cur[k], cur[k].Tab.N/2)) {
				changed = true
			}
			for i := cur[k].Tab.N - 1; i >= 0; i-- {
				if i < cur[k].Tab.N && accept(k, dropRowLit(cur[k], i)) {
					changed = true
				}
			}
			for _, c := range append([]string(nil), cur[k].Tab.Names()...) {
				if len(cur[k].Tab.Names()) > 1 && accept(k, dropColLit(cur[k], c)) {
					changed = true
				}
			}
		}
	}
	return cur
}

// prefixLit keeps the first m rows (every declared property survives a
// prefix truncation).
func prefixLit(ld *ralg.LitDecl, m int) *ralg.LitDecl {
	idx := make([]int32, m)
	for i := range idx {
		idx[i] = int32(i)
	}
	return rowsLit(ld, idx)
}

// dropRowLit removes row i; whether the declarations survive is left
// to the shrinker's re-verification.
func dropRowLit(ld *ralg.LitDecl, i int) *ralg.LitDecl {
	idx := make([]int32, 0, ld.Tab.N-1)
	for r := 0; r < ld.Tab.N; r++ {
		if r != i {
			idx = append(idx, int32(r))
		}
	}
	return rowsLit(ld, idx)
}

func rowsLit(ld *ralg.LitDecl, idx []int32) *ralg.LitDecl {
	return &ralg.LitDecl{
		Tab:   ld.Tab.Gather(idx),
		Ords:  ld.Ords,
		Grps:  ld.Grps,
		Key:   ld.Key,
		Const: ld.Const,
	}
}

// dropColLit removes column c and every declaration that mentions it
// (orderings keep their prefix up to c).
func dropColLit(ld *ralg.LitDecl, c string) *ralg.LitDecl {
	t := ralg.NewTable(nil, nil)
	for _, name := range ld.Tab.Names() {
		if name != c {
			t.AddCol(name, *ld.Tab.Col(name))
		}
	}
	out := &ralg.LitDecl{
		Tab:   t,
		Key:   dropStr(ld.Key, c),
		Const: dropStr(ld.Const, c),
	}
	for _, ord := range ld.Ords {
		if pfx := truncAt(ord, c); len(pfx) > 0 {
			out.Ords = append(out.Ords, pfx)
		}
	}
	for _, g := range ld.Grps {
		if g.Group == c {
			continue
		}
		if pfx := truncAt(g.Cols, c); len(pfx) > 0 {
			out.Grps = append(out.Grps, ralg.GrpSpec{Cols: pfx, Group: g.Group})
		}
	}
	return out
}

func dropStr(ss []string, c string) []string {
	var out []string
	for _, s := range ss {
		if s != c {
			out = append(out, s)
		}
	}
	return out
}

func truncAt(cols []string, c string) []string {
	for i, s := range cols {
		if s == c {
			return append([]string(nil), cols[:i]...)
		}
	}
	return cols
}
