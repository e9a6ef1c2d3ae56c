// Fixture: alloccheck's structural rule. Not compiled into the module
// (testdata); syntax-only analysis, so stub types suffice.
package ralg

type Exec struct{}

type Table struct{ N int }

// Columns and lists from the arena are what the rule wants.
func (e *Exec) execArena(in *Table) *Table {
	idx := dirty[int32](e, scratchRegion, in.N)
	_ = settle(e, idx)
	_ = grown(e, []int64(nil), in.N)
	return in
}

// A row-sized make of a column element type is flagged wherever it sits
// in the package, operator or helper.
func (e *Exec) execMakeColumn(in *Table) *Table {
	_ = make([]int64, in.N)        // want "row-sized make of a column type outside arena.go"
	_ = make([]bool, 0, in.N)      // want "row-sized make"
	_ = make([]xqt.Kind, in.N)     // want "row-sized make"
	_ = make([]string, in.N)       // want "row-sized make"
	_ = make([]int64, 4)           // literal size: bookkeeping, not a column
	_ = make([][]int32, in.N)      // per-chunk headers, not a column
	_ = make([]xqt.Item, in.N)     // holds pointers: charged by hand
	_ = make(map[int64]bool, in.N) // not a slice
	return in
}

func gatherHelper(src []float64, idx []int32) []float64 {
	out := make([]float64, len(idx)) // want "row-sized make"
	for i, j := range idx {
		out[i] = src[j]
	}
	return out
}

// A function literal is no hiding place.
func closureHelper(n int) func() []uint64 {
	return func() []uint64 { return make([]uint64, n) } // want "row-sized make"
}
