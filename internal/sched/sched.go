// Package sched is the global query scheduler: admission control over
// concurrent executions and their memory, the §6 multi-client setting.
//
// The scheduler layers two mechanisms with distinct jobs:
//
//   - Admission bounds how many executions run at once (MaxConcurrent).
//     Admit waits — deadline-aware, FIFO-ish — for a free execution
//     slot; a bounded number of waiters may queue (MaxQueue), beyond
//     which Admit fails fast with ErrQueueFull so overload sheds
//     instead of piling up.
//
//   - Memory reservations bound what the running executions may hold
//     together (MemTotal). Each admitted execution reserves its
//     per-query budget, sized from its snapshot's row count (Cost) and
//     clamped to MemPerQuery; an admission the pool cannot cover fails
//     with ErrMemExhausted.
package sched

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"

	"mxq/internal/faults"
)

// Config sizes one Scheduler. The zero value of each field picks the
// documented default.
type Config struct {
	// MaxConcurrent bounds admitted (running) executions. 0 means
	// 2×runtime.GOMAXPROCS(0).
	MaxConcurrent int
	// MaxQueue bounds the executions waiting for admission; an Admit
	// beyond it fails immediately with ErrQueueFull. 0 means
	// DefaultQueueFactor×MaxConcurrent; negative disables queueing
	// entirely (a full scheduler rejects instantly).
	MaxQueue int
	// MemPerQuery is the default per-execution memory budget in bytes;
	// the Grant carries it and the execution layer enforces it. 0
	// disables memory governance.
	MemPerQuery int64
	// MemTotal bounds the sum of running executions' memory
	// reservations: an Admit that cannot reserve its per-query budget
	// fails with ErrMemExhausted instead of overcommitting. Meaningful
	// only with MemPerQuery > 0; 0 means unlimited (per-query budgets
	// still apply).
	MemTotal int64
}

// DefaultQueueFactor sizes the zero MaxQueue: that many waiters per
// execution slot.
const DefaultQueueFactor = 2

// ErrQueueFull is returned by Admit when MaxConcurrent executions are
// running and MaxQueue admissions are already waiting.
var ErrQueueFull = errors.New("sched: admission queue full")

// ErrMemExhausted is returned by Admit when the global memory pool
// (MemTotal) cannot cover another per-query reservation. It is
// overload, not a defect: the same query is admitted once running
// queries release their reservations.
var ErrMemExhausted = errors.New("sched: memory pool exhausted")

// Memory-grant sizing (see memFor): every execution is reserved at
// least MemFloor, plus MemPerRow for each structural row of its
// snapshot, clamped to MemPerQuery. The constants are deliberately
// generous — the reservation is an admission-control estimate, the
// byte-accurate enforcement happens in the execution layer.
const (
	MemFloor  = 8 << 20
	MemPerRow = 4 << 10
)

func (c Config) withDefaults() Config {
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = 2 * runtime.GOMAXPROCS(0)
	}
	if c.MaxQueue == 0 {
		c.MaxQueue = DefaultQueueFactor * c.MaxConcurrent
	}
	return c
}

// Cost carries what an admitted execution's memory reservation is sized
// from. It is known before anything compiles: the engine reads it off
// its current snapshot (core.Engine.AdmissionCost).
type Cost struct {
	// Rows is the execution's snapshot input size: the total structural
	// rows of the registered containers.
	Rows int64
}

// Scheduler is safe for concurrent use by any number of executions.
type Scheduler struct {
	cfg     Config
	execSem chan struct{} // MaxConcurrent execution slots

	queued       atomic.Int64 // admissions currently waiting
	running      atomic.Int64 // grants admitted and not yet released
	admitted     atomic.Int64 // total admissions granted
	rejectedFull atomic.Int64 // Admit calls failed with ErrQueueFull
	canceledWait atomic.Int64 // Admit calls abandoned while queued

	memInUse    atomic.Int64 // sum of running grants' memory reservations
	memHigh     atomic.Int64 // high-water mark of memInUse
	memRejected atomic.Int64 // Admit calls failed with ErrMemExhausted
}

// New builds a scheduler from cfg (zero fields pick the defaults).
func New(cfg Config) *Scheduler {
	cfg = cfg.withDefaults()
	return &Scheduler{cfg: cfg, execSem: make(chan struct{}, cfg.MaxConcurrent)}
}

// Admit blocks until an execution slot is free, then returns the
// execution's Grant. It fails fast with ErrQueueFull when MaxQueue
// admissions are already waiting, and returns ctx.Err() when the
// context expires or is cancelled while queued — the queue position is
// released promptly either way. The caller must Release the grant when
// the execution completes or is abandoned.
func (s *Scheduler) Admit(ctx context.Context, c Cost) (*Grant, error) {
	if err := faults.SchedAdmit.Err(); err != nil {
		return nil, err
	}
	select {
	case s.execSem <- struct{}{}:
	default:
		if q := s.queued.Add(1); s.cfg.MaxQueue < 0 || q > int64(s.cfg.MaxQueue) {
			s.queued.Add(-1)
			s.rejectedFull.Add(1)
			return nil, ErrQueueFull
		}
		var done <-chan struct{}
		if ctx != nil {
			done = ctx.Done()
		}
		select {
		case s.execSem <- struct{}{}:
			s.queued.Add(-1)
		case <-done:
			s.queued.Add(-1)
			s.canceledWait.Add(1)
			return nil, ctx.Err()
		}
	}
	mem := s.memFor(c)
	if mem > 0 && !s.reserveMem(mem) {
		s.drainSlot()
		s.memRejected.Add(1)
		return nil, ErrMemExhausted
	}
	g := &Grant{s: s, mem: mem}
	s.admitted.Add(1)
	s.running.Add(1)
	return g, nil
}

// drainSlot returns one execution slot the caller provably holds in the
// buffered execSem.
//
// waitcheck:exempt the receive drains a slot the caller just acquired,
// so it cannot block.
func (s *Scheduler) drainSlot() { <-s.execSem }

// reserveMem reserves n bytes of the global memory pool, or reports
// false when MemTotal cannot cover it. A scheduler without MemTotal
// always succeeds (per-query budgets still apply).
func (s *Scheduler) reserveMem(n int64) bool {
	if s.cfg.MemTotal <= 0 {
		return true
	}
	for {
		used := s.memInUse.Load()
		if used+n > s.cfg.MemTotal {
			return false
		}
		if s.memInUse.CompareAndSwap(used, used+n) {
			raise(&s.memHigh, used+n)
			return true
		}
	}
}

// returnMem gives n reserved bytes back to the global pool.
func (s *Scheduler) returnMem(n int64) {
	if s.cfg.MemTotal > 0 && n > 0 {
		s.memInUse.Add(-n)
	}
}

// memFor sizes an execution's memory grant from its cost: a bookkeeping
// floor plus a per-snapshot-row allowance, clamped to MemPerQuery (0,
// no memory governance, when MemPerQuery is unset).
func (s *Scheduler) memFor(c Cost) int64 {
	return min(MemFloor+MemPerRow*c.Rows, s.cfg.MemPerQuery)
}

// Stats is a point-in-time snapshot of the scheduler's counters.
type Stats struct {
	MaxConcurrent int   // configured execution slots
	QueueDepth    int64 // admissions currently waiting
	Running       int64 // executions admitted and not yet released
	Admitted      int64 // total admissions granted
	RejectedFull  int64 // admissions rejected because the queue was full
	CanceledWait  int64 // admissions abandoned (deadline/cancel) while queued
	MemPerQuery   int64 // configured per-execution memory budget (bytes)
	MemTotal      int64 // configured global memory pool (bytes)
	MemInUse      int64 // sum of running executions' memory reservations
	MemHighWater  int64 // high-water mark of MemInUse
	MemRejected   int64 // admissions rejected with ErrMemExhausted
}

// Stats returns a snapshot of the scheduler's counters.
func (s *Scheduler) Stats() Stats {
	return Stats{
		MaxConcurrent: s.cfg.MaxConcurrent,
		QueueDepth:    s.queued.Load(),
		Running:       s.running.Load(),
		Admitted:      s.admitted.Load(),
		RejectedFull:  s.rejectedFull.Load(),
		CanceledWait:  s.canceledWait.Load(),
		MemPerQuery:   s.cfg.MemPerQuery,
		MemTotal:      s.cfg.MemTotal,
		MemInUse:      s.memInUse.Load(),
		MemHighWater:  s.memHigh.Load(),
		MemRejected:   s.memRejected.Load(),
	}
}

// raise lifts the high-water mark hw to at least v.
func raise(hw *atomic.Int64, v int64) {
	for cur := hw.Load(); v > cur && !hw.CompareAndSwap(cur, v); cur = hw.Load() {
	}
}

// Grant is one admitted execution's hold on the scheduler: an
// execution slot and a memory reservation. A Grant is safe for
// concurrent use.
type Grant struct {
	s        *Scheduler
	mem      int64
	released atomic.Bool
}

// MemLimit returns the execution's memory budget in bytes (0 =
// unlimited): the grant memFor sized from the execution's Cost.
func (g *Grant) MemLimit() int64 { return g.mem }

// Release returns the execution slot. It is idempotent, so it is safe
// to both defer and call explicitly.
//
// waitcheck:exempt the receive drains a slot this grant provably holds
// in the buffered execSem, so it cannot block.
func (g *Grant) Release() {
	if !g.released.CompareAndSwap(false, true) {
		return
	}
	g.s.running.Add(-1)
	g.s.returnMem(g.mem)
	<-g.s.execSem
	// fault point deliberately after all bookkeeping: an injected panic
	// here must be contained by the caller without wedging the
	// scheduler (the slot and reservation are already returned)
	if err := faults.SchedRelease.Err(); err != nil {
		panic(err)
	}
}

// ctxKey carries a Grant through a context.
type ctxKey struct{}

// WithGrant returns a context carrying g: an execution started under
// it reuses the grant instead of admitting again. This is how the
// serving layer — which must admit before it compiles — hands its
// already-held slot to core's execution path.
func WithGrant(ctx context.Context, g *Grant) context.Context {
	return context.WithValue(ctx, ctxKey{}, g)
}

// GrantFrom returns the Grant carried by ctx, or nil.
func GrantFrom(ctx context.Context) *Grant {
	if ctx == nil {
		return nil
	}
	g, _ := ctx.Value(ctxKey{}).(*Grant)
	return g
}
