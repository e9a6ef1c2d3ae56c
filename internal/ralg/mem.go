package ralg

import (
	"sync/atomic"

	"mxq/internal/xqerr"
)

// MemBudget is a per-execution memory budget: atomic byte accounting
// over every allocation that materializes rows, shared by the executor
// and all of its fork-join workers. It is advisory accounting, not an
// allocator — operators Charge estimated bytes as they materialize
// output (amortized, at the same bitmask intervals as the cancellation
// polls), and once the running total passes the limit the budget
// latches an exceeded flag that Exec.stopRequested observes exactly
// like a context cancellation: workers drain at their next poll,
// partial tables are discarded without memoizing, and Run surfaces the
// typed resource-exhausted error.
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

// Charge accounts n bytes and reports whether the execution may
// continue. Once over budget the flag stays latched — later charges
// keep returning false, so an operator that ignores one refusal is
// still stopped at the next poll. Charge never blocks.
func (m *MemBudget) Charge(n int64) bool {
	if m == nil {
		return true
	}
	used := m.used.Add(n)
	for {
		h := m.high.Load()
		if used <= h || m.high.CompareAndSwap(h, used) {
			break
		}
	}
	if used > m.limit {
		m.over.Store(true)
	}
	return !m.over.Load()
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
		"query memory budget of %d bytes exceeded (%d bytes charged)", m.limit, m.Used())
}

// Used returns the bytes currently charged.
func (m *MemBudget) Used() int64 {
	if m == nil {
		return 0
	}
	return m.used.Load()
}

// HighWater returns the maximum bytes ever charged.
func (m *MemBudget) HighWater() int64 {
	if m == nil {
		return 0
	}
	return m.high.Load()
}
