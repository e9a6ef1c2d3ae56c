// Package sched is the global query scheduler: admission control over
// concurrent executions plus one bounded worker-slot pool they all
// share, the §6 multi-client setting. Without one, an engine bounds
// only its own executions' workers, by a Pool of its own.
//
// The scheduler layers three mechanisms with distinct jobs:
//
//   - Admission bounds how many executions run at once (MaxConcurrent).
//     Admit waits — deadline-aware, FIFO-ish — for a free execution
//     slot; a bounded number of waiters may queue (MaxQueue), beyond
//     which Admit fails fast with ErrQueueFull so overload sheds
//     instead of piling up.
//
//   - The budget caps how much intra-query parallelism one admitted
//     execution may request. It is derived from plan cost hints known
//     on a prepared statement — operator count, join count, snapshot
//     input size — so a point lookup is granted budget 1 while a
//     join-heavy scan over a large corpus is granted many workers
//     (never more than the pool holds).
//
//   - The slot pool (Pool) bounds the worker goroutines actually live
//     across ALL executions at the pool size (Workers). Partitioned
//     operators draw their extra goroutines from it through the Grant
//     (the scj.Slots hook).
//
// A grant with budget 1 runs exactly the serial code path, which
// remains the byte-identical differential oracle.
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
	// Workers is the global worker-slot pool: the bound on live worker
	// goroutines across all concurrent executions. 0 means
	// runtime.GOMAXPROCS(0).
	Workers int
	// MaxConcurrent bounds admitted (running) executions. 0 means
	// 2×Workers: with budgets interleaving, twice the pool size keeps
	// the pool busy while small queries slip between big ones.
	MaxConcurrent int
	// MaxQueue bounds the executions waiting for admission; an Admit
	// beyond it fails immediately with ErrQueueFull. 0 means
	// DefaultQueueFactor×MaxConcurrent; negative disables queueing
	// entirely (a full scheduler rejects instantly).
	MaxQueue int
	// MaxWorkersPerQuery caps any single execution's worker budget.
	// 0 means Workers (one query may use the whole pool when alone).
	MaxWorkersPerQuery int
	// RowsPerWorker is the budget heuristic's data-size scale: an
	// execution is granted at most 1 + inputRows/RowsPerWorker workers,
	// so small documents never justify a wide budget. 0 means
	// DefaultRowsPerWorker.
	RowsPerWorker int64
	// MemPerQuery is the default per-execution memory budget in bytes;
	// the Grant carries it next to the worker budget and the execution
	// layer enforces it. 0 disables memory governance.
	MemPerQuery int64
	// MemTotal bounds the sum of running executions' memory
	// reservations: an Admit that cannot reserve its per-query budget
	// fails with ErrMemExhausted instead of overcommitting. Meaningful
	// only with MemPerQuery > 0; 0 means unlimited (per-query budgets
	// still apply).
	MemTotal int64
}

// Defaults for the zero Config.
const (
	DefaultQueueFactor   = 2
	DefaultRowsPerWorker = 64 << 10
)

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
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = 2 * c.Workers
	}
	if c.MaxQueue == 0 {
		c.MaxQueue = DefaultQueueFactor * c.MaxConcurrent
	}
	if c.MaxWorkersPerQuery <= 0 || c.MaxWorkersPerQuery > c.Workers {
		c.MaxWorkersPerQuery = c.Workers
	}
	if c.RowsPerWorker <= 0 {
		c.RowsPerWorker = DefaultRowsPerWorker
	}
	return c
}

// Cost carries the plan cost hints an admitted execution's worker
// budget is derived from: operator and join counts are known once at
// prepare time, Rows is the execution's snapshot input size (total
// structural rows of the registered containers).
type Cost struct {
	Ops   int
	Joins int
	Rows  int64
}

// Scheduler is safe for concurrent use by any number of executions.
type Scheduler struct {
	cfg     Config
	execSem chan struct{} // MaxConcurrent execution slots

	queued        atomic.Int64 // admissions currently waiting
	running       atomic.Int64 // grants admitted and not yet released
	admitted      atomic.Int64 // total admissions granted
	rejectedFull  atomic.Int64 // Admit calls failed with ErrQueueFull
	canceledWait  atomic.Int64 // Admit calls abandoned while queued
	grantedBudget atomic.Int64 // sum of running grants' budgets

	slots *Pool // the worker slots every grant draws from

	memInUse    atomic.Int64 // sum of running grants' memory reservations
	memHigh     atomic.Int64 // high-water mark of memInUse
	memRejected atomic.Int64 // Admit calls failed with ErrMemExhausted
}

// New builds a scheduler from cfg (zero fields pick the defaults).
func New(cfg Config) *Scheduler {
	cfg = cfg.withDefaults()
	return &Scheduler{cfg: cfg, execSem: make(chan struct{}, cfg.MaxConcurrent), slots: NewPool(cfg.Workers)}
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
	mem := s.cfg.MemPerQuery
	if mem > 0 && c != (Cost{}) {
		// plan hints are already known (engine-level admission): reserve
		// the sized grant, not the full per-query default — SetCost below
		// then has nothing left to shrink
		mem = s.memFor(c)
	}
	if mem > 0 && !s.reserveMem(mem) {
		s.drainSlot()
		s.memRejected.Add(1)
		return nil, ErrMemExhausted
	}
	g := &Grant{s: s, budget: 1, mem: mem}
	s.admitted.Add(1)
	s.running.Add(1)
	s.grantedBudget.Add(1)
	if c != (Cost{}) {
		g.SetCost(c)
	}
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

// memFor sizes an execution's memory grant from its plan cost hints:
// a bookkeeping floor plus a per-snapshot-row allowance, clamped to
// MemPerQuery. SetCost only ever shrinks the initial MemPerQuery
// reservation toward this value — growing would let a reservation the
// global pool never covered slip through admission.
func (s *Scheduler) memFor(c Cost) int64 {
	m := MemFloor + MemPerRow*c.Rows
	if m > s.cfg.MemPerQuery {
		m = s.cfg.MemPerQuery
	}
	return m
}

// budgetFor derives a worker budget from cost hints: the plan's
// complexity (joins weigh full workers, plain operators a sixteenth)
// asks for width, the snapshot size caps it (one extra worker per
// RowsPerWorker input rows), and the per-query and pool clamps bound
// the result to [1, min(MaxWorkersPerQuery, Workers)].
func (s *Scheduler) budgetFor(c Cost) int {
	b := 1 + c.Joins + c.Ops/16
	if dataCap := 1 + int(c.Rows/s.cfg.RowsPerWorker); b > dataCap {
		b = dataCap
	}
	if b > s.cfg.MaxWorkersPerQuery {
		b = s.cfg.MaxWorkersPerQuery
	}
	if b < 1 {
		b = 1
	}
	return b
}

// Stats is a point-in-time snapshot of the scheduler's counters.
type Stats struct {
	Workers       int   // configured worker-slot pool size
	MaxConcurrent int   // configured execution slots
	QueueDepth    int64 // admissions currently waiting
	Running       int64 // executions admitted and not yet released
	Admitted      int64 // total admissions granted
	RejectedFull  int64 // admissions rejected because the queue was full
	CanceledWait  int64 // admissions abandoned (deadline/cancel) while queued
	GrantedBudget int64 // sum of running executions' worker budgets
	SlotsInUse    int64 // worker goroutines currently drawing on the pool
	MaxSlotsInUse int64 // high-water mark of SlotsInUse
	MemPerQuery   int64 // configured per-execution memory budget (bytes)
	MemTotal      int64 // configured global memory pool (bytes)
	MemInUse      int64 // sum of running executions' memory reservations
	MemHighWater  int64 // high-water mark of MemInUse
	MemRejected   int64 // admissions rejected with ErrMemExhausted
}

// Stats returns a snapshot of the scheduler's counters.
func (s *Scheduler) Stats() Stats {
	return Stats{
		Workers:       s.cfg.Workers,
		MaxConcurrent: s.cfg.MaxConcurrent,
		QueueDepth:    s.queued.Load(),
		Running:       s.running.Load(),
		Admitted:      s.admitted.Load(),
		RejectedFull:  s.rejectedFull.Load(),
		CanceledWait:  s.canceledWait.Load(),
		GrantedBudget: s.grantedBudget.Load(),
		SlotsInUse:    s.slots.InUse(),
		MaxSlotsInUse: s.slots.MaxInUse(),
		MemPerQuery:   s.cfg.MemPerQuery,
		MemTotal:      s.cfg.MemTotal,
		MemInUse:      s.memInUse.Load(),
		MemHighWater:  s.memHigh.Load(),
		MemRejected:   s.memRejected.Load(),
	}
}

// Pool is a bounded set of worker slots, the one source of the extra
// goroutines a fork-join region runs on (the scj.Slots hook, which says
// why acquisition never blocks). A Scheduler holds one that all its
// grants draw from; an engine without a scheduler holds its own, shared
// by all its executions. A Pool is safe for concurrent use.
type Pool struct {
	size     int64
	inUse    atomic.Int64 // slots handed out and not yet returned
	maxInUse atomic.Int64 // high-water mark of inUse
}

// NewPool returns a pool of n worker slots.
func NewPool(n int) *Pool { return &Pool{size: int64(n)} }

// AcquireSlots hands out up to want slots, as many as are free, without
// blocking. The caller must return exactly the granted count via
// ReleaseSlots when its fork-join region completes.
func (p *Pool) AcquireSlots(want int) int {
	for {
		used := p.inUse.Load()
		n := min(int64(want), p.size-used)
		if n <= 0 {
			return 0
		}
		if p.inUse.CompareAndSwap(used, used+n) {
			raise(&p.maxInUse, used+n)
			return int(n)
		}
	}
}

// ReleaseSlots returns n slots to the pool.
func (p *Pool) ReleaseSlots(n int) { p.inUse.Add(-int64(n)) }

// InUse returns the slots handed out now.
func (p *Pool) InUse() int64 { return p.inUse.Load() }

// MaxInUse returns the most slots ever handed out at once.
func (p *Pool) MaxInUse() int64 { return p.maxInUse.Load() }

// raise lifts the high-water mark hw to at least v.
func raise(hw *atomic.Int64, v int64) {
	for cur := hw.Load(); v > cur && !hw.CompareAndSwap(cur, v); cur = hw.Load() {
	}
}

// Grant is one admitted execution's hold on the scheduler: an
// execution slot plus the right to draw up to Budget workers from the
// shared pool. It implements the scj.Slots slot-acquisition hook, so
// it plugs directly into ralg.ParOptions. A Grant is safe for
// concurrent use by the execution's worker goroutines.
type Grant struct {
	s        *Scheduler
	budget   int
	mem      int64
	costSet  atomic.Bool
	released atomic.Bool
}

// SetCost finalizes the execution's worker budget from its plan cost
// hints (known only after compilation — the serving layer admits
// before it compiles). The first call wins; until then the budget is 1.
func (g *Grant) SetCost(c Cost) {
	if !g.costSet.CompareAndSwap(false, true) {
		return
	}
	b := g.s.budgetFor(c)
	g.s.grantedBudget.Add(int64(b - g.budget))
	g.budget = b
	if g.mem > 0 {
		if m := g.s.memFor(c); m < g.mem {
			g.s.returnMem(g.mem - m)
			g.mem = m
		}
	}
}

// Budget returns the execution's worker budget (≥ 1).
func (g *Grant) Budget() int { return g.budget }

// MemLimit returns the execution's memory budget in bytes (0 =
// unlimited): the scheduler's per-query default, possibly shrunk by
// SetCost's plan-hint sizing.
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
	g.s.grantedBudget.Add(-int64(g.budget))
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

// AcquireSlots draws up to want worker slots from the scheduler's pool
// (see Pool.AcquireSlots).
func (g *Grant) AcquireSlots(want int) int { return g.s.slots.AcquireSlots(want) }

// ReleaseSlots returns n worker slots to the scheduler's pool.
func (g *Grant) ReleaseSlots(n int) { g.s.slots.ReleaseSlots(n) }

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
