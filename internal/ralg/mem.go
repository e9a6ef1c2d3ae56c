package ralg

import (
	"sync/atomic"

	"mxq/internal/xqerr"
)

// MemBudget is a per-execution memory budget: the meter of everything
// that hands an execution memory. The arena charges each request before
// it is bumped (carve, arena.go) and gives an operator's scratch bytes
// back when the operator ends; the three other allocators charge by
// hand — the staircase join's block emitter (scj.Stats.Charge), the
// transient container's Reserve, the pinned snapshot — as do the few
// row-sized Go maps and item slices (Exec.charge). Used is therefore
// what the execution holds and HighWater its peak, in bytes. A request
// that would pass the limit is refused before it is allocated: the
// budget latches an exceeded flag that Exec.stopRequested observes
// exactly like a context cancellation, so the running loop stops at its
// next poll, and Run surfaces the typed resource-exhausted error.
//
// A nil *MemBudget is valid everywhere and means "unlimited": every
// method is nil-safe, so call sites never branch on configuration.
type MemBudget struct {
	limit int64
	used  atomic.Int64
	high  atomic.Int64
	over  atomic.Bool
}

// NewMemBudget returns a budget of limit bytes; limit <= 0 returns nil
// (unlimited).
func NewMemBudget(limit int64) *MemBudget {
	if limit <= 0 {
		return nil
	}
	return &MemBudget{limit: limit}
}

// Charge accounts n >= 0 bytes about to be allocated and reports
// whether they may be. A request that would pass the limit is refused —
// it is not counted, its caller must not allocate — and latches the
// flag: every later charge is refused too. Charge never blocks.
func (m *MemBudget) Charge(n int64) bool {
	if m == nil {
		return true
	}
	if m.used.Add(n) > m.limit || m.over.Load() {
		m.used.Add(-n)
		m.over.Store(true)
		return false
	}
	return true
}

// release gives n charged bytes back: memory whose lifetime ended. Used
// only grows in between, so the peak is the most any release found, or
// what is held now.
func (m *MemBudget) release(n int64) {
	m.high.Store(m.HighWater())
	m.used.Add(-n)
}

// Exceeded reports whether the budget has been exhausted.
func (m *MemBudget) Exceeded() bool { return m != nil && m.over.Load() }

// Err returns the typed resource-exhausted error when the budget is
// exceeded, nil otherwise.
func (m *MemBudget) Err() error {
	if !m.Exceeded() {
		return nil
	}
	return xqerr.Newf(xqerr.CodeResourceLimit,
		"query memory budget of %d bytes exceeded (a request was refused with %d bytes held)", m.limit, m.Used())
}

// Used returns the bytes the execution holds right now.
func (m *MemBudget) Used() int64 {
	if m == nil {
		return 0
	}
	return m.used.Load()
}

// HighWater returns the most bytes the execution ever held at once.
func (m *MemBudget) HighWater() int64 {
	if m == nil {
		return 0
	}
	return max(m.high.Load(), m.used.Load())
}
