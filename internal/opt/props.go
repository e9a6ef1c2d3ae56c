package opt

import (
	"slices"
	"unicode/utf8"

	"mxq/internal/ralg"
)

// props are the inferred column properties of one plan node's output.
// A column is the small id its name is interned to for the run (cols):
// key and cnst are bitsets of ids, and an ordering is the string
// of its columns' ids, one rune each. ords and grps are sets, kept
// duplicate-free as entries are added. A props never changes once its
// node is done, so an operator that passes properties through returns
// its input's, and one that changes a field copies only the struct.
type props struct {
	ords      []string // known lexicographic orderings
	grps      []grpOrd // known group orderings
	key, cnst colSet
}

type grpOrd struct {
	cols string
	g    rune
}

// none is the properties of a node nothing is known about.
var none = &props{}

// colSet is a set of column ids: those below 64 in w, the rest (less 64)
// in more, which is copied on write so that sets can be shared.
type colSet struct {
	w    uint64
	more *colSet
}

func (s colSet) has(id rune) bool {
	if id >= 64 {
		return s.more != nil && s.more.has(id-64)
	}
	return s.w&(1<<id) != 0
}

func (s colSet) with(id rune) colSet {
	if id < 64 {
		s.w |= 1 << id
		return s
	}
	var more colSet
	if s.more != nil {
		more = *s.more
	}
	more = more.with(id - 64)
	s.more = &more
	return s
}

// cols interns the column names of one optimizer run. Ids start at 1 (0
// spells a name the run never met) and skip the UTF-16 surrogates, which
// a string cannot hold as runes.
type cols struct {
	ids   map[string]rune
	names []string // of ids 1, 2, …
}

func (t *cols) id(c string) rune {
	id, ok := t.ids[c]
	if !ok {
		t.names = append(t.names, c)
		if id = rune(len(t.names)); id >= 0xD800 {
			id += 0x800
		}
		t.ids[c] = id
	}
	return id
}

func (t *cols) decode(ord string) []string {
	out := make([]string, 0, len(ord))
	for _, id := range ord {
		if id >= 0xE000 {
			id -= 0x800
		}
		out = append(out, t.names[id-1])
	}
	return out
}

// spell is ord without interning: a name the run never met is 0.
func (t *cols) spell(names []string) string {
	var b []byte
	for _, c := range names {
		b = utf8.AppendRune(b, t.ids[c])
	}
	return string(b)
}

// last returns the final column of ord, 0 for the empty ordering.
func last(ord string) rune {
	if ord == "" {
		return 0
	}
	r, _ := utf8.DecodeLastRuneInString(ord)
	return r
}

// covers reports whether the node is known to be sorted on want:
// constant columns are skipped, and once a matched column is a key the
// remaining columns are free.
func (p *props) covers(want string) bool {
	for _, ord := range p.ords {
		if p.prefixMatch(ord, want) {
			return true
		}
	}
	return p.prefixMatch("", want) // every column of want is constant
}

// sortedPrefix returns the number of leading columns of want the input
// is known to be sorted on (for refine sorts).
func (p *props) sortedPrefix(want string) int {
	for end := len(want); end > 0; {
		if p.covers(want[:end]) {
			return utf8.RuneCountInString(want[:end])
		}
		_, n := utf8.DecodeLastRuneInString(want[:end])
		end -= n
	}
	return 0
}

func (p *props) prefixMatch(ord, want string) bool {
	for _, w := range want {
		if p.cnst.has(w) {
			continue
		}
		// skip const columns inside the known ordering
		c, n := utf8.DecodeRuneInString(ord)
		for ord != "" && p.cnst.has(c) {
			ord = ord[n:]
			c, n = utf8.DecodeRuneInString(ord)
		}
		if ord == "" || c != w {
			return false
		}
		if p.key.has(c) {
			return true // unique prefix determines the full order
		}
		ord = ord[n:]
	}
	return true
}

// grpCovered reports whether grpord(want, g) is known: either a global
// ordering on want holds (any grouping of a sorted sequence is sorted),
// or a recorded grpord entry matches.
func (p *props) grpCovered(want string, g rune) bool {
	if p.covers(want) {
		return true
	}
	for _, e := range p.grps {
		if e.g == g && p.prefixMatch(e.cols, want) {
			return true
		}
	}
	return false
}

// Props is a read-only view of one plan node's inferred §4.1 column
// properties, exported for the static plan verifier (internal/planck):
// planck re-derives a conservative subset of these properties from
// first principles and reports any claim of the optimizer that its own
// inference refutes.
type Props struct {
	p *props
	t *cols
}

// GrpOrd is one known group ordering: tuples with equal Group are
// ordered on Cols (groups need not be consecutive).
type GrpOrd struct {
	Cols  []string
	Group string
}

// Key reports whether column c is known to be duplicate-free.
func (pr Props) Key(c string) bool { return pr.p != nil && pr.p.key.has(pr.t.ids[c]) }

// Const reports whether column c is known to hold one constant value.
func (pr Props) Const(c string) bool { return pr.p != nil && pr.p.cnst.has(pr.t.ids[c]) }

// Covers reports whether the node is known to be sorted on cols.
func (pr Props) Covers(cols []string) bool { return pr.p != nil && pr.p.covers(pr.t.spell(cols)) }

// GrpCovered reports whether grpord(cols, g) is known to hold.
func (pr Props) GrpCovered(cols []string, g string) bool {
	return pr.p != nil && pr.p.grpCovered(pr.t.spell(cols), pr.t.ids[g])
}

// KeyCols returns the key columns, sorted by name.
func (pr Props) KeyCols() []string { return pr.names(func(p *props) colSet { return p.key }) }

// ConstCols returns the constant columns, sorted by name.
func (pr Props) ConstCols() []string { return pr.names(func(p *props) colSet { return p.cnst }) }

func (pr Props) names(set func(*props) colSet) []string {
	if pr.p == nil {
		return nil
	}
	var out []string
	for c, id := range pr.t.ids {
		if set(pr.p).has(id) {
			out = append(out, c)
		}
	}
	slices.Sort(out)
	return out
}

// Ords returns the known lexicographic orderings.
func (pr Props) Ords() [][]string {
	if pr.p == nil {
		return nil
	}
	out := make([][]string, len(pr.p.ords))
	for i, ord := range pr.p.ords {
		out[i] = pr.t.decode(ord)
	}
	return out
}

// Grps returns the known group orderings.
func (pr Props) Grps() []GrpOrd {
	if pr.p == nil {
		return nil
	}
	out := make([]GrpOrd, len(pr.p.grps))
	for i, g := range pr.p.grps {
		out[i] = GrpOrd{Cols: pr.t.decode(g.cols), Group: pr.t.decode(string(g.g))[0]}
	}
	return out
}

// InferProps runs the §4.1 property inference over a numbered plan
// without rewriting it, returning the inferred properties of each node
// by its number. It works on optimized and unoptimized plans alike:
// inference only reads the operators (including any Mode annotations
// already set), so on an optimizer output it reproduces exactly the
// properties the rewrites were justified by.
func InferProps(s ralg.Schedule) []Props {
	o := &optimizer{cols: cols{ids: map[string]rune{}}, strs: map[string]string{}}
	out := make([]Props, len(s))
	var ins []*props
	for i, op := range s {
		ins = ins[:0]
		for _, in := range op.In {
			pr := none // a nil input
			if in >= 0 {
				pr = out[in].p
			}
			ins = append(ins, pr)
		}
		out[i] = Props{o.infer(op.Plan, ins), &o.cols}
	}
	return out
}
