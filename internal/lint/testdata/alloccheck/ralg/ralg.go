// Fixture: the ralg side of alloccheck. Not compiled into the module
// (testdata); syntax-only analysis, so stub types suffice.
package ralg

type Exec struct{}

func (e *Exec) charge(n int64) bool { return true }

type Table struct{ N int }

func (e *Exec) chargeTable(t *Table) bool { return true }

func (e *Exec) execBad(in *Table) *Table { // want "execBad: materializing allocation never charges"
	out := make([]string, in.N)
	for i := range out {
		out[i] = "x"
	}
	return in
}

func (e *Exec) execGood(in *Table) *Table {
	e.charge(8 * int64(in.N))
	out := dirty[int64](e, outRegion, in.N)
	_ = out
	return in
}

func (e *Exec) execGoodTable(in *Table) *Table {
	out := &Table{N: in.N}
	_ = zeroed[int64](e, outRegion, in.N)
	e.chargeTable(out)
	return out
}

// execViaHelper reaches the charge through a same-package helper: the
// call-graph closure must accept it.
func (e *Exec) execViaHelper(in *Table) *Table {
	_ = make([]string, in.N)
	e.chargingHelper(in)
	return in
}

func (e *Exec) chargingHelper(in *Table) { e.charge(int64(in.N)) }

// execAllocInClosure hides its allocation inside a function literal;
// the allocation is still this operator's, so the missing charge fires.
func (e *Exec) execAllocInClosure(in *Table) *Table { // want "execAllocInClosure: materializing allocation never charges"
	var rows []int64
	work := func() {
		rows = append(rows, 1)
	}
	work()
	return in
}

// alloccheck:exempt zero-copy column header remap, no row payloads
func (e *Exec) execExempt(in *Table) *Table {
	_ = make([]int64, in.N) // the annotation covers the arena rule too
	return in
}

// alloccheck:exempt
func (e *Exec) execExemptNoReason(in *Table) *Table { // want "execExemptNoReason: materializing allocation never charges"
	_ = make([]string, in.N)
	return in
}

// The arena calls are materializing sites: an operator that takes
// column memory and never reaches a charge fires like one that makes.
func (e *Exec) execArenaUncharged(in *Table) *Table { // want "execArenaUncharged: materializing allocation never charges"
	idx := dirty[int32](e, scratchRegion, in.N)
	_ = settle(e, idx)
	return in
}

func (e *Exec) execArenaCharged(in *Table) *Table {
	out := grown(e, []int64(nil), in.N)
	e.charge(8 * int64(cap(out)))
	return in
}

// A row-sized make of a pointer-free column type is flagged wherever it
// sits in the package, operator or helper, charged or not.
func (e *Exec) execMakeColumn(in *Table) *Table {
	e.charge(9 * int64(in.N))
	_ = make([]int64, in.N)        // want "execMakeColumn: row-sized make of a pointer-free column type outside arena.go"
	_ = make([]bool, 0, in.N)      // want "execMakeColumn: row-sized make"
	_ = make([]xqt.Kind, in.N)     // want "execMakeColumn: row-sized make"
	_ = make([]int64, 4)           // literal size: bookkeeping, not a column
	_ = make([]string, in.N)       // strings stay on the Go heap
	_ = make([][]int32, in.N)      // per-chunk headers, not a column
	_ = make(map[int64]bool, in.N) // not a slice
	return in
}

func gatherHelper(src []float64, idx []int32) []float64 {
	out := make([]float64, len(idx)) // want "gatherHelper: row-sized make"
	for i, j := range idx {
		out[i] = src[j]
	}
	return out
}

// execNoAlloc never allocates, so it is not a candidate.
func (e *Exec) execNoAlloc(in *Table) *Table { return in }

// notAnOperator allocates without charging but is not an exec* entry
// point.
func notAnOperator(in *Table) {
	_ = make([]string, in.N)
}
