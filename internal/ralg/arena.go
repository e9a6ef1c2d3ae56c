// Column memory (docs/executor.md, "Memory: one region per execution").
// Every Exec draws its row-sized pointer-free column vectors — int64,
// int32, float64, uint64, xqt.Kind (and Aggr's scratch records) —
// from one recycled arena with
// two bump regions: outRegion lives until Exec.Release and holds
// whatever a table column may reference; scratchRegion is reset by Run
// after every operator and holds pair and index lists, sort keys, hash
// heads, bitmaps. dirty memory carries what the last execution left —
// the kernel overwrites every element — and zeroed memory is cleared.
// Requests under arenaFloor bytes, []string vectors and requests without
// an Exec stay on make: a tiny execution never takes an arena, and an
// Exec that is never released is ordinary garbage (its slices keep their
// slabs alive).
//
// carve is also where the memory budget is metered (mem.go): every
// request of an Exec, arena or make, is charged its n·sizeof(T) bytes
// before it is served, a refused one is never served, and the scratch
// bytes go back to the budget with the scratch region.
//
// This is the package's only user of unsafe, and the only file mxqlint's
// alloccheck allows a row-sized make.

package ralg

import (
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"unsafe"

	"mxq/internal/xqt"
)

const (
	minSlabWords = 16 << 7 // 16 KB: the first slab of a region
	poisonWord   = 0xA5A5A5A5A5A5A5A5
	// itemBytes is what a row of a []xqt.Item costs: the few row-sized
	// item slices operators make are charged by hand (Exec.charge)
	itemBytes = int64(unsafe.Sizeof(xqt.Item{}))
)

// regionID names one of an arena's two lifetimes.
type regionID uint8

const (
	outRegion regionID = iota
	scratchRegion
)

// region is a bump allocator over 8-byte words, sized by demand: slabs
// chain while a round outgrows the first one, and the reset that ends
// the round drops a chain, so the next round starts on one slab of all
// the words this one asked for (size classes cost 1.5x the memory).
type region struct {
	slabs [][]uint64
	cur   int // the slab being bumped
	off   int // words handed out of slabs[cur]
	asked int // words requested since the last reset
	want  int // the most a round ever asked: the size of a new first slab
}

func (r *region) bump(words int) []uint64 {
	r.asked += words
	for ; r.cur < len(r.slabs); r.cur, r.off = r.cur+1, 0 {
		if s := r.slabs[r.cur]; len(s)-r.off >= words {
			r.off += words
			return s[r.off-words : r.off : r.off]
		}
	}
	size, held := max(words, minSlabWords, r.want), 0
	for _, s := range r.slabs {
		held += len(s)
	}
	if held > 0 {
		size = max(words, minSlabWords, held/4)
	}
	r.slabs = append(r.slabs, make([]uint64, size))
	r.off = words
	return r.slabs[r.cur][:words:words]
}

func (r *region) reset() {
	for i := 0; poisoned && i < len(r.slabs) && i <= r.cur; i++ {
		s := r.slabs[i] // overwrite what was handed out
		if i == r.cur {
			s = s[:r.off]
		}
		fillWith(s, poisonWord)
	}
	if r.want = max(r.want, r.asked); len(r.slabs) > 1 {
		r.slabs = nil
	}
	r.cur, r.off, r.asked = 0, 0, 0
}

type arena [2]region

// arenas is the package-wide free list, LIFO so the warmest arena goes
// out first. Not a sync.Pool: a Pool keeps a returned item in the slot
// of the P that returned it, where a Get on another P cannot see it, and
// that strands a warm arena (megabytes, still reachable) every few dozen
// executions. Like a Pool the list gives idle memory back: every
// collection cycle drops the arenas nobody took since the last one.
var arenas struct {
	sync.Mutex
	free []*arena
	idle int // free[:idle] sat out a whole collection cycle
	arm  sync.Once
}

var liveArenas atomic.Int64

// LiveArenas reports how many executions hold an arena right now: zero
// once every execution that took one has been released.
func LiveArenas() int64 { return liveArenas.Load() }

// trimEveryCycle hangs a cleanup on a sentinel nothing references: it
// runs after the next collection cycle, drops the idle arenas, re-arms.
func trimEveryCycle() {
	runtime.AddCleanup(new(*arena), func(struct{}) {
		arenas.Lock()
		arenas.free = slices.Delete(arenas.free, 0, arenas.idle)
		arenas.idle = len(arenas.free)
		arenas.Unlock()
		trimEveryCycle()
	}, struct{}{})
}

// execMem is an execution's handle on its arena, taken at the first
// region-sized request.
type execMem struct {
	a       *arena
	scratch int64 // operator-lifetime bytes charged to the budget
}

// overBudget is what a refused request unwinds the operator with; runOp
// turns it into the budget's typed error.
type overBudget struct{}

// metered accounts n bytes of lifetime rg about to be allocated and
// reports whether the budget grants them.
func (e *Exec) metered(rg regionID, n int64) bool {
	if rg == scratchRegion {
		e.mem.scratch += n
	}
	return e.Mem.Charge(n)
}

// charge is metered for carve and for the operators that make a row-sized
// item slice: a refusal ends the operator there. A nil Exec (the exported
// order checks) is unmetered.
func (e *Exec) charge(rg regionID, n int64) {
	if e != nil && e.Mem != nil && !e.metered(rg, n) {
		panic(overBudget{})
	}
}

func (e *Exec) bump(rg regionID, words int) []uint64 {
	m := &e.mem
	if m.a == nil {
		liveArenas.Add(1)
		arenas.Lock()
		if n := len(arenas.free) - 1; n >= 0 {
			m.a, arenas.free[n] = arenas.free[n], nil
			arenas.free, arenas.idle = arenas.free[:n], min(arenas.idle, n)
		} else {
			m.a = new(arena)
		}
		arenas.Unlock()
	}
	return m.a[rg].bump(words)
}

// resetScratch ends the operator lifetime: its bytes go back to the
// budget, its memory to the region.
func (e *Exec) resetScratch() {
	if e.Mem != nil {
		e.Mem.release(e.mem.scratch)
		e.mem.scratch = 0
	}
	if e.mem.a != nil {
		e.mem.a[scratchRegion].reset()
	}
}

// Release returns the execution's column memory for reuse. Every table
// the Exec produced is invalid afterwards: callers copy what they keep —
// Table.Items does — before releasing. It is idempotent, a no-op for an
// execution that never took an arena, and must not overlap RunSchedule.
func (e *Exec) Release() {
	m := &e.mem
	if m.a == nil {
		return
	}
	m.a[outRegion].reset()
	m.a[scratchRegion].reset()
	arenas.arm.Do(trimEveryCycle)
	arenas.Lock()
	arenas.free = append(arenas.free, m.a)
	arenas.Unlock()
	m.a = nil
	liveArenas.Add(-1)
}

// carve returns n elements of region rg, zeroed or dirty (poisoned
// builds fill dirty memory with a pattern no kernel writes), charged to
// the budget first.
func carve[T any](e *Exec, rg regionID, n int, zero bool) []T {
	size := int(unsafe.Sizeof(*new(T)))
	if e != nil {
		e.charge(rg, int64(n)*int64(size))
	}
	switch any((*T)(nil)).(type) {
	case *int64, *int32, *float64, *uint64, *xqt.Kind, *aggGroup: // pointer-free: the collector never scans a slab
		if e != nil && n*size >= arenaFloor {
			w := e.bump(rg, (n*size+7)/8)
			if zero {
				clear(w)
			} else if poisoned {
				fillWith(w, poisonWord)
			}
			return unsafe.Slice((*T)(unsafe.Pointer(unsafe.SliceData(w))), n)
		}
	}
	return make([]T, n)
}

// dirty returns n elements the caller overwrites before anyone reads them.
func dirty[T any](e *Exec, rg regionID, n int) []T { return carve[T](e, rg, n, false) }

// zeroed returns n zero elements.
func zeroed[T any](e *Exec, rg regionID, n int) []T { return carve[T](e, rg, n, true) }

// grown returns s with room for need more elements, moving it to a
// larger scratch buffer when it is full: append(grown(e, s, 1), v) is
// the append of lists whose size is only known once they are built (the
// pair lists of a join). The check inlines; only the move is a call.
func grown[T any](e *Exec, s []T, need int) []T {
	if cap(s)-len(s) >= need {
		return s
	}
	return regrown(e, s, need)
}

func regrown[T any](e *Exec, s []T, need int) []T {
	b := dirty[T](e, scratchRegion, max(2*cap(s), len(s)+need, 1<<12))
	return b[:copy(b, s)]
}
