package core

import "testing"

// axisProbes are the benchmark's six staircase-join probes (wildcard,
// text, reverse and sibling axes, which the element-name index cannot
// answer).
var axisProbes = []string{
	`count(/site//*)`,
	`count(//text())`,
	`count(//keyword/ancestor::*)`,
	`count(//bidder/following-sibling::bidder)`,
	`count(/site/regions/*/item/description//*)`,
	`count(//listitem//keyword)`,
}

// TestTopLevelPathsSortNothing: a top-level path runs in one iteration,
// so its step chain keeps const(iter) and the optimizer proves both the
// (item, iter) order each step takes and the (iter, pos) order its
// numbering gives. Only one-row tables (the context root, the count)
// may still reach a sort; no step result does.
func TestTopLevelPathsSortNothing(t *testing.T) {
	e := xmarkEngine(t, DefaultConfig(), 0.01)
	for _, q := range axisProbes {
		res, err := e.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		if st := res.Stats; st.SortedRows > 2 {
			t.Errorf("%s: %d rows reached a sort (%d full sorts), want at most 2", q, st.SortedRows, st.FullSorts)
		}
	}
}
