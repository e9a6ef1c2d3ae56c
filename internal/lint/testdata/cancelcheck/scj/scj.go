// Fixture: the scj side of cancelcheck — any function threading a
// *Stats is a kernel and must poll (or reach a poll, or be exempt).
package scj

type Stats struct {
	Touched int64
	Stop    func() bool
}

func (st *Stats) stopped() bool { return st.Stop != nil && st.Stop() }

type Pairs struct {
	Pre  []int32
	Iter []int32
}

func llBad(ctx Pairs, st *Stats) { // want "llBad: row loop never polls cancellation"
	for range ctx.Pre {
		st.Touched++
	}
}

func llGood(ctx Pairs, st *Stats) {
	for i := range ctx.Pre {
		st.Touched++
		if i&4095 == 4095 && st.stopped() {
			break
		}
	}
}

// llDelegating reaches the poll through the kernel it calls.
func llDelegating(ctx Pairs, st *Stats) {
	for i := 0; i < 2; i++ {
		llGood(ctx, st)
	}
}

// noStats loops but does not thread the counters: not a kernel.
func noStats(ctx Pairs) {
	for range ctx.Pre {
	}
}

// touch counts n visited tuples and polls once per 4096 of them.
func (st *Stats) touch(n int64) bool {
	before := st.Touched
	st.Touched += n
	return before>>12 != st.Touched>>12 && st.stopped()
}

// scanStretchBad is a bulk loop that accounts its tuples once per
// stretch and never polls: a long stretch runs unbounded.
func scanStretchBad(kind []uint8, p, stop int32, st *Stats) int32 { // want "scanStretchBad: row loop never polls cancellation"
	from := p
	for ; p <= stop; p++ {
		_ = kind[p]
	}
	st.Touched += int64(p - from)
	return p
}

// scanStretchGood cuts the stretch into bounded sub-stretches and polls
// after each through touch.
func scanStretchGood(kind []uint8, p, stop int32, st *Stats) int32 {
	for p <= stop {
		from := p
		for end := min(stop, p+4095); p <= end; p++ {
			_ = kind[p]
		}
		if st.touch(int64(p - from)) {
			return -1
		}
	}
	return p
}
