package optcheck

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"mxq/internal/planck"
	"mxq/internal/ralg"
	"mxq/internal/store"
	"mxq/internal/xqt"
)

// claims is the synthesis contract for one rewrite input: the schema
// planck inferred for it plus the §4.1 properties the optimizer
// claimed — exactly the facts the rewrite was justified by. The
// synthesizer generates tables satisfying all of them; anything not
// claimed is left as adversarial as the generator can make it.
type claims struct {
	cols []string
	info map[string]planck.ColInfo
	ords [][]string
	grps []ralg.GrpSpec
	key  map[string]bool
	cnst map[string]bool
}

// claimsOf extracts the synthesis contract from planck's per-node
// analysis. Claims referring to columns outside the schema are
// truncated (orderings keep their valid prefix) or dropped —
// defensive; inference should never produce them.
func claimsOf(info planck.Info) *claims {
	s := info.Schema
	cl := &claims{
		info: map[string]planck.ColInfo{},
		key:  map[string]bool{},
		cnst: map[string]bool{},
	}
	for _, c := range s.Cols() {
		cl.cols = append(cl.cols, c)
		cl.info[c] = s.Info(c)
	}
	seen := map[string]bool{}
	for _, ord := range info.Props.Ords() {
		pfx := colPrefix(ord, s)
		if len(pfx) == 0 {
			continue
		}
		k := strings.Join(pfx, "\x00")
		if !seen[k] {
			seen[k] = true
			cl.ords = append(cl.ords, pfx)
		}
	}
	for _, g := range info.Props.Grps() {
		if !s.Has(g.Group) {
			continue
		}
		pfx := colPrefix(g.Cols, s)
		if len(pfx) == 0 {
			continue
		}
		k := "g\x00" + g.Group + "\x00" + strings.Join(pfx, "\x00")
		if !seen[k] {
			seen[k] = true
			cl.grps = append(cl.grps, ralg.GrpSpec{Cols: pfx, Group: g.Group})
		}
	}
	for _, c := range info.Props.KeyCols() {
		if s.Has(c) {
			cl.key[c] = true
		}
	}
	for _, c := range info.Props.ConstCols() {
		if s.Has(c) {
			cl.cnst[c] = true
		}
	}
	return cl
}

func colPrefix(cols []string, s *planck.Schema) []string {
	var out []string
	for _, c := range cols {
		if !s.Has(c) {
			break
		}
		out = append(out, c)
	}
	return out
}

// clone deep-copies the contract (the shrinker mutates claim sets when
// dropping columns).
func (cl *claims) clone() *claims {
	out := &claims{
		cols: append([]string(nil), cl.cols...),
		info: make(map[string]planck.ColInfo, len(cl.info)),
		key:  map[string]bool{},
		cnst: map[string]bool{},
	}
	for k, v := range cl.info {
		out.info[k] = v
	}
	for _, ord := range cl.ords {
		out.ords = append(out.ords, append([]string(nil), ord...))
	}
	for _, g := range cl.grps {
		out.grps = append(out.grps, ralg.GrpSpec{Cols: append([]string(nil), g.Cols...), Group: g.Group})
	}
	for c := range cl.key {
		out.key[c] = true
	}
	for c := range cl.cnst {
		out.cnst[c] = true
	}
	return out
}

// boolish reports whether column c holds two-valued data (a column
// statically known xs:boolean) — a key claim on such a column caps the
// table at two rows.
func (cl *claims) boolish(c string) bool { return cl.info[c].Is(xqt.KBool) }

// maxRows returns the largest row count the claims admit, at most want.
func (cl *claims) maxRows(want int) int {
	n := want
	for _, c := range cl.cols {
		if cl.cnst[c] && cl.key[c] && n > 1 {
			n = 1
		}
		if cl.key[c] && cl.boolish(c) && n > 2 {
			n = 2
		}
	}
	return n
}

// domain provides the node universe for synthesized node/attribute
// items (a small shredded document in a private pool) and the executors
// that replay substituted plans against snapshots of that pool.
type domain struct {
	base  *store.Pool
	docID int32
	elems []int32 // element pres in document order
	attrs int     // attribute table rows
}

// newDomain shreds the synthetic document once; snapshots of the pool
// host every subsequent execution (a snapshot shares the read-only
// document container, so node items stay valid across runs).
func newDomain() (*domain, error) {
	var b strings.Builder
	b.WriteString("<r>")
	for i := 0; i < 24; i++ {
		fmt.Fprintf(&b, `<e%d a="v%02d" b="w%02d">t%02d</e%d>`, i%4, i, i, i, i%4)
	}
	b.WriteString("</r>")
	c, err := store.Shred("optcheck.xml", strings.NewReader(b.String()), false)
	if err != nil {
		return nil, err
	}
	pool := store.NewPool()
	pool.Register(c)
	c.BuildIndexes()
	d := &domain{base: pool, docID: c.ID, attrs: len(c.AttrVal)}
	for pre := 0; pre < c.Len(); pre++ {
		if c.Kind[pre] == store.KindElem {
			d.elems = append(d.elems, int32(pre))
		}
	}
	return d, nil
}

// run executes one substituted subplan against a fresh snapshot of the
// domain pool with its own transient container — before and after
// replay in fully isolated executors, sharing only read-only state.
func (d *domain) run(s ralg.Schedule) (*ralg.Table, error) {
	pool := d.base.Snapshot()
	tr := store.NewContainer("")
	pool.Register(tr)
	return ralg.NewExec(pool, tr).RunSchedule(s)
}

// synthInput builds a literal input honoring the claims at the given
// shape, or nil when no realizable table was found. The adversarial
// generator runs first; if its output fails planck's claim
// verification (over-coupled claims), a conservative fully-sorted
// generator is tried before giving up on the shape.
func (d *domain) synthInput(cl *claims, rows int, seed int64) *ralg.LitDecl {
	n := cl.maxRows(rows)
	rng := rand.New(rand.NewSource(seed*1000003 + int64(n)))
	for _, conservative := range []bool{false, true} {
		tab, err := d.materialize(cl, genCodes(cl, n, rng, conservative), n)
		if err != nil {
			continue
		}
		ld := litFor(cl, tab)
		if planck.Verify(ld, planck.Config{}) == nil {
			return ld
		}
	}
	return nil
}

// litFor wraps a synthesized table as a literal leaf declaring the
// claimed properties (planck verifies the declarations against the
// data, and both property inferences honor them downstream).
func litFor(cl *claims, tab *ralg.Table) *ralg.LitDecl {
	ld := &ralg.LitDecl{
		Tab:   tab,
		Key:   sortedSet(cl.key),
		Const: sortedSet(cl.cnst),
	}
	for _, ord := range cl.ords {
		ld.Ords = append(ld.Ords, append([]string(nil), ord...))
	}
	for _, g := range cl.grps {
		ld.Grps = append(ld.Grps, ralg.GrpSpec{Cols: append([]string(nil), g.Cols...), Group: g.Group})
	}
	return ld
}

func sortedSet(m map[string]bool) []string {
	if len(m) == 0 {
		return nil
	}
	out := make([]string, 0, len(m))
	for c := range m {
		out = append(out, c)
	}
	sort.Strings(out)
	return out
}

// genCodes assigns every column an integer code sequence satisfying
// the claims; materialize maps codes to column values monotonically,
// so any ordering established here survives materialization.
//
// The adversarial generator satisfies each claim as tightly as it can:
// ordered columns get duplicate-heavy non-decreasing runs, columns
// ordered under a prefix reset at run boundaries (so they are NOT
// globally sorted), grouped orderings interleave their groups, and
// unconstrained columns are random with likely duplicates. The
// conservative generator makes every non-constant column 1..N — a
// shape satisfying any consistent claim combination — as a fallback
// when claims couple columns in ways the adversarial pass missed.
func genCodes(cl *claims, n int, rng *rand.Rand, conservative bool) map[string][]int64 {
	codes := make(map[string][]int64, len(cl.cols))
	assign := func(c string, cs []int64) {
		if _, ok := codes[c]; !ok {
			codes[c] = cs
		}
	}
	iota1 := func() []int64 {
		cs := make([]int64, n)
		for i := range cs {
			cs[i] = int64(i + 1)
		}
		return cs
	}
	for c := range cl.cnst {
		if _, ok := codes[c]; ok {
			continue
		}
		v := int64(0)
		if !conservative {
			v = rng.Int63n(3)
			if cl.boolish(c) {
				v = rng.Int63n(2)
			}
		}
		cs := make([]int64, n)
		for i := range cs {
			cs[i] = v
		}
		assign(c, cs)
	}
	if conservative {
		for _, c := range cl.cols {
			assign(c, iota1())
		}
		return codes
	}
	for _, ord := range cl.ords {
		for j, c := range ord {
			if _, ok := codes[c]; ok {
				continue
			}
			cs := make([]int64, n)
			switch {
			case j == 0 || cl.key[c]:
				// Leading ordered column (or a unique column anywhere in
				// the ordering): globally non-decreasing, strictly so when
				// unique.
				v := rng.Int63n(3)
				for i := range cs {
					cs[i] = v
					if cl.key[c] {
						v += 1 + rng.Int63n(2)
					} else {
						v += rng.Int63n(2)
					}
				}
			default:
				// Ordered only within runs of equal prefix values: reset
				// to a random base at each run boundary, so the column is
				// not globally sorted.
				prefix := ord[:j]
				v := rng.Int63n(4)
				for i := range cs {
					if i > 0 && prefixChanged(codes, prefix, i) {
						v = rng.Int63n(4)
					} else if i > 0 {
						v += rng.Int63n(2)
					}
					cs[i] = v
				}
			}
			assign(c, cs)
		}
	}
	for _, g := range cl.grps {
		gv, ok := codes[g.Group]
		if !ok {
			// Interleaved small group ids (unique group columns fall out
			// of the key branch below, making every group a singleton).
			gv = make([]int64, n)
			if cl.key[g.Group] {
				for i, p := range rng.Perm(n) {
					gv[i] = int64(p)
				}
			} else {
				groups := int64(2)
				if n > 6 {
					groups = 3
				}
				if cl.boolish(g.Group) {
					groups = 2
				}
				for i := range gv {
					gv[i] = rng.Int63n(groups)
				}
			}
			assign(g.Group, gv)
		}
		// Distinct group values, ranked, so per-group codes can encode
		// (counter, group) pairs that are globally unique yet increase
		// only within each group.
		grank := rankOf(gv)
		ng := int64(len(grank))
		for _, c := range g.Cols {
			if _, ok := codes[c]; ok {
				continue
			}
			cs := make([]int64, n)
			ctr := map[int64]int64{}
			for i := range cs {
				k := gv[i]
				if cl.key[c] {
					cs[i] = ctr[k]*(ng+1) + int64(grank[k])
					ctr[k]++
				} else {
					cs[i] = ctr[k]
					ctr[k] += rng.Int63n(2)
				}
			}
			assign(c, cs)
		}
	}
	for _, c := range cl.cols {
		if _, ok := codes[c]; ok {
			continue
		}
		cs := make([]int64, n)
		switch {
		case cl.key[c]:
			for i, p := range rng.Perm(n) {
				cs[i] = int64(p)
			}
		case cl.boolish(c):
			for i := range cs {
				cs[i] = rng.Int63n(2)
			}
		default:
			for i := range cs {
				cs[i] = rng.Int63n(4)
			}
		}
		assign(c, cs)
	}
	return codes
}

// prefixChanged reports whether row i differs from row i-1 on any of
// the (already assigned) prefix columns.
func prefixChanged(codes map[string][]int64, prefix []string, i int) bool {
	for _, p := range prefix {
		if cs, ok := codes[p]; ok && cs[i] != cs[i-1] {
			return true
		}
	}
	return false
}

// rankOf maps each distinct code to its rank in ascending code order —
// the monotone bridge between generated codes and materialized values.
func rankOf(cs []int64) map[int64]int {
	distinct := make([]int64, 0, len(cs))
	seen := map[int64]bool{}
	for _, v := range cs {
		if !seen[v] {
			seen[v] = true
			distinct = append(distinct, v)
		}
	}
	sort.Slice(distinct, func(a, b int) bool { return distinct[a] < distinct[b] })
	out := make(map[int64]int, len(distinct))
	for r, v := range distinct {
		out[v] = r
	}
	return out
}

// materialize turns code sequences into a table of the claimed schema.
// Every mapping from codes to values is monotone under the executor's
// comparator (xqt.SortLess for items), so orderings and distinctness
// established on codes hold on the materialized values. Node and
// attribute codes map rank-wise into the domain document (errors when
// the document is too small for the required distinct count).
func (d *domain) materialize(cl *claims, codes map[string][]int64, n int) (*ralg.Table, error) {
	t := ralg.NewTable(nil, nil)
	for _, name := range cl.cols {
		iv, err := d.itemsOf(cl.info[name], codes[name])
		if err != nil {
			return nil, err
		}
		t.AddCol(name, iv)
	}
	return t, nil
}

// boolsOf collapses codes to booleans monotonically: the smallest code
// maps to false, larger codes to true — preserving order, constness
// and (for two distinct codes) distinctness.
func boolsOf(cs []int64) []bool {
	out := make([]bool, len(cs))
	if len(cs) == 0 {
		return out
	}
	min := cs[0]
	for _, v := range cs {
		if v < min {
			min = v
		}
	}
	for i, v := range cs {
		out[i] = v > min
	}
	return out
}

// itemsOf materializes an item column of the statically known shape.
// Unknown tags default to integers — downstream checks that survived
// planck on the original input cannot have relied on a tag planck did
// not know.
func (d *domain) itemsOf(ci planck.ColInfo, cs []int64) (ralg.ItemVec, error) {
	var iv ralg.ItemVec
	ranks := rankOf(cs)
	tag := xqt.KInt
	if ci.Node {
		tag = xqt.KNode
	} else if ci.TagKnown {
		tag = ci.Tag
	}
	switch tag {
	case xqt.KNode:
		if len(ranks) > len(d.elems) {
			return iv, fmt.Errorf("optcheck: %d distinct nodes wanted, domain has %d", len(ranks), len(d.elems))
		}
	case xqt.KAttr:
		if len(ranks) > d.attrs {
			return iv, fmt.Errorf("optcheck: %d distinct attributes wanted, domain has %d", len(ranks), d.attrs)
		}
	}
	bools := boolsOf(cs)
	for i, v := range cs {
		r := ranks[v]
		switch tag {
		case xqt.KNode:
			iv.Append(xqt.Node(d.docID, d.elems[r]))
		case xqt.KAttr:
			iv.Append(xqt.Attr(d.docID, int32(r)))
		case xqt.KDouble:
			iv.Append(xqt.Double(float64(r) + 0.5))
		case xqt.KString:
			iv.Append(xqt.Str(fmt.Sprintf("s%04d", r)))
		case xqt.KUntyped:
			iv.Append(xqt.Untyped(fmt.Sprintf("s%04d", r)))
		case xqt.KBool:
			iv.Append(xqt.Bool(bools[i]))
		default:
			iv.Append(xqt.Int(v))
		}
	}
	if iv.Len() == 0 {
		iv.Tag = tag // the claimed tag holds of no rows
	}
	return iv, nil
}
