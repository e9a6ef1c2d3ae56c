package opt

import (
	"sort"

	"mxq/internal/ralg"
)

// Props is a read-only view of one plan node's inferred §4.1 column
// properties, exported for the static plan verifier (internal/planck):
// planck re-derives a conservative subset of these properties from
// first principles and reports any claim of the optimizer that its own
// inference refutes.
type Props struct {
	p *props
}

// GrpOrd is one known group ordering: tuples with equal Group are
// ordered on Cols (groups need not be consecutive).
type GrpOrd struct {
	Cols  []string
	Group string
}

// Dense reports whether column c is known to be the sequence 1,2,3,…
// in row order.
func (pr Props) Dense(c string) bool { return pr.p != nil && pr.p.dense[c] }

// Key reports whether column c is known to be duplicate-free.
func (pr Props) Key(c string) bool { return pr.p != nil && pr.p.key[c] }

// Const reports whether column c is known to hold one constant value.
func (pr Props) Const(c string) bool { return pr.p != nil && pr.p.cnst[c] }

// Covers reports whether the node is known to be sorted on cols.
func (pr Props) Covers(cols []string) bool { return pr.p != nil && pr.p.covers(cols) }

// GrpCovered reports whether grpord(cols, g) is known to hold.
func (pr Props) GrpCovered(cols []string, g string) bool {
	return pr.p != nil && pr.p.grpCovered(cols, g)
}

// DenseCols returns the dense columns, sorted by name.
func (pr Props) DenseCols() []string { return sortedKeys(prMap(pr, 'd')) }

// KeyCols returns the key columns, sorted by name.
func (pr Props) KeyCols() []string { return sortedKeys(prMap(pr, 'k')) }

// ConstCols returns the constant columns, sorted by name.
func (pr Props) ConstCols() []string { return sortedKeys(prMap(pr, 'c')) }

// Ords returns the known lexicographic orderings.
func (pr Props) Ords() [][]string {
	if pr.p == nil {
		return nil
	}
	return pr.p.ords
}

// Grps returns the known group orderings.
func (pr Props) Grps() []GrpOrd {
	if pr.p == nil {
		return nil
	}
	out := make([]GrpOrd, len(pr.p.grps))
	for i, g := range pr.p.grps {
		out[i] = GrpOrd{Cols: g.cols, Group: g.g}
	}
	return out
}

func prMap(pr Props, which byte) map[string]bool {
	if pr.p == nil {
		return nil
	}
	switch which {
	case 'd':
		return pr.p.dense
	case 'k':
		return pr.p.key
	default:
		return pr.p.cnst
	}
}

func sortedKeys(m map[string]bool) []string {
	if len(m) == 0 {
		return nil
	}
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// InferProps runs the §4.1 property inference over an existing plan DAG
// without rewriting it, returning the inferred properties per node. It
// works on optimized and unoptimized plans alike: inference only reads
// the operators (including any Mode/Pos/Merge annotations already set),
// so on an optimizer output it reproduces exactly the properties the
// rewrites were justified by.
func InferProps(root ralg.Plan) map[ralg.Plan]Props {
	o := &optimizer{
		done:  map[ralg.Plan]ralg.Plan{},
		props: map[ralg.Plan]*props{},
	}
	ralg.Walk(root, func(n ralg.Plan) {
		if _, ok := o.props[n]; !ok {
			o.props[n] = o.infer(n)
		}
	})
	out := make(map[ralg.Plan]Props, len(o.props))
	for n, pr := range o.props {
		out[n] = Props{p: pr}
	}
	return out
}
