// Fixture: the ralg side of cancelcheck. Not compiled into the module
// (testdata); syntax-only analysis, so stub types suffice.
package ralg

type Exec struct{}

func (e *Exec) stopRequested() bool { return false }

type Table struct{ N int }

func (e *Exec) execBad(in *Table) *Table { // want "execBad: row loop never polls cancellation"
	sum := 0
	for i := 0; i < in.N; i++ {
		sum += i
	}
	return in
}

func (e *Exec) execGood(in *Table) *Table {
	for i := 0; i < in.N; i++ {
		if i&8191 == 8191 && e.stopRequested() {
			break
		}
	}
	return in
}

// execViaHelper reaches the poll through a same-package helper: the
// call-graph closure must accept it.
func (e *Exec) execViaHelper(in *Table) *Table {
	for i := 0; i < in.N; i++ {
		e.pollingHelper()
	}
	return in
}

func (e *Exec) pollingHelper() { _ = e.stopRequested() }

// execViaChunkDriver hands its row loop to a chunk driver, which polls
// before every chunk (the drivers live in parallel.go, outside this
// fixture: the marker list must know them by name).
func (e *Exec) execViaChunkDriver(in *Table) *Table {
	out := make([]int64, in.N)
	e.chunkFill(in.N, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out[i] = int64(i)
		}
	})
	return in
}

// execLoopInClosure hides its row loop inside a function literal; the
// loop is still this operator's loop, so the missing poll must fire.
func (e *Exec) execLoopInClosure(in *Table) *Table { // want "execLoopInClosure: row loop never polls"
	work := func() {
		for i := 0; i < in.N; i++ {
			_ = i
		}
	}
	work()
	return in
}

// cancelcheck:exempt memory-bound scan, no per-row work that can stall
func (e *Exec) execExempt(in *Table) *Table {
	for i := 0; i < in.N; i++ {
		_ = i
	}
	return in
}

// cancelcheck:exempt
func (e *Exec) execExemptNoReason(in *Table) *Table { // want "execExemptNoReason: row loop never polls"
	for i := 0; i < in.N; i++ {
		_ = i
	}
	return in
}

// execNoLoop has no row loop, so it is not a candidate.
func (e *Exec) execNoLoop(in *Table) *Table { return in }

// notAnOperator loops without polling but is not an exec* entry point.
func notAnOperator(in *Table) {
	for i := 0; i < in.N; i++ {
		_ = i
	}
}
