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
	_ = make(map[int64]bool, in.N) // want "Go map keyed by a row value"
	return in
}

// A map keyed by a row value is the key table's job, whatever its size
// and however it is built; plan-time maps keyed by nodes or axes pass.
func (e *Exec) execMakeMap(in *Table) *Table {
	_ = map[string]int{"a": 1}          // want "Go map keyed by a row value outside arena.go"
	_ = make(map[float64][]int64)       // want "Go map keyed by a row value"
	_ = make(map[int32]struct{}, 8)     // want "Go map keyed by a row value"
	_ = map[uint64]bool{}               // want "Go map keyed by a row value"
	_ = make(map[Plan]int, in.N)        // plan bookkeeping
	_ = map[scj.Axis][]scj.Axis{}       // plan bookkeeping
	_ = func() { _ = map[int64]bool{} } // want "Go map keyed by a row value"
	return in
}

func groupHelper[T comparable](vals []T) int {
	seen := make(map[T]int32, len(vals)) // want "Go map keyed by a row value"
	return len(seen)
}

type table[K comparable] struct{}

func (t *table[K]) index(n int) map[K]int32 {
	return make(map[K]int32, n) // want "Go map keyed by a row value"
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
