package ralg

import (
	"errors"
	"strings"
	"testing"

	"mxq/internal/scj"
	"mxq/internal/store"
	"mxq/internal/xqerr"
)

func TestMemBudgetNilUnlimited(t *testing.T) {
	var m *MemBudget
	if !m.Charge(1 << 40) {
		t.Fatal("nil budget refused a charge")
	}
	if m.Exceeded() || m.Err() != nil || m.Used() != 0 || m.HighWater() != 0 {
		t.Fatal("nil budget is not inert")
	}
	if NewMemBudget(0) != nil || NewMemBudget(-5) != nil {
		t.Fatal("non-positive limits must mean unlimited (nil)")
	}
}

func TestMemBudgetLatchAndError(t *testing.T) {
	m := NewMemBudget(100)
	if !m.Charge(60) || m.Exceeded() {
		t.Fatal("in-budget charge misreported")
	}
	if m.Charge(60) {
		t.Fatal("over-budget charge accepted")
	}
	if !m.Exceeded() {
		t.Fatal("exceeded flag not latched")
	}
	// the latch stays down even if usage is later released
	if m.Charge(-100); !m.Exceeded() {
		t.Fatal("latch reset by negative charge")
	}
	err := m.Err()
	if err == nil {
		t.Fatal("no error from exceeded budget")
	}
	if !xqerr.IsResourceLimit(err) {
		t.Fatalf("err = %v, want code %s", err, xqerr.CodeResourceLimit)
	}
	var qe *xqerr.Error
	if !errors.As(err, &qe) || qe.Code != xqerr.CodeResourceLimit {
		t.Fatalf("err not a typed QueryError: %v", err)
	}
	if m.HighWater() != 120 {
		t.Fatalf("high water = %d, want 120", m.HighWater())
	}
}

// An over-budget hash-join build must stop early — in both the serial
// and the partitioned parallel build — with every worker drained by the
// time buildHashTable returns (the fork-join barrier), and the exceeded
// flag latched for Run's checkpoint to surface.
func TestBuildHashTableBudgetAbort(t *testing.T) {
	rkey := make([]int64, 1<<17)
	for i := range rkey {
		rkey[i] = int64(i)
	}
	for name, par := range map[string]ParOptions{
		"serial":   {},
		"parallel": {Workers: 4, Threshold: 1},
	} {
		e := &Exec{Mem: NewMemBudget(4096), Par: par}
		h := e.buildHashTable(rkey)
		if h == nil {
			t.Fatalf("%s: nil hash table", name)
		}
		if !e.Mem.Exceeded() {
			t.Fatalf("%s: budget not exceeded after %d-entry build under a 4KiB budget", name, len(rkey))
		}
		if err := e.Mem.Err(); !xqerr.IsResourceLimit(err) {
			t.Fatalf("%s: err = %v", name, err)
		}
		// the abort must be early: nowhere near the full build charged
		if e.Mem.Used() >= int64(len(rkey))*hashEntryBytes {
			t.Fatalf("%s: build ran to completion (%d bytes charged)", name, e.Mem.Used())
		}
	}
}

// Table.MemBytes must track capacity, not length, across every column
// kind — the estimators are what the operators charge.
func TestTableMemBytes(t *testing.T) {
	tb := NewTable([]string{"iter", "flag", "item"}, []ColKind{KInt, KBool, KItem})
	if tb.MemBytes() != 0 {
		t.Fatalf("empty table MemBytes = %d", tb.MemBytes())
	}
	tb.Col("iter").Int = make([]int64, 10)
	tb.Col("flag").Bool = make([]bool, 10)
	got := tb.MemBytes()
	if got != 8*10+10 {
		t.Fatalf("MemBytes = %d, want %d", got, 8*10+10)
	}
}

// A serial step must be visible to the budget while it emits: under a
// budget a tenth of its output, descendant::node() from the root aborts
// mid-emission — Emitted stays below the full count — and Run returns
// the typed resource-limit error. (Before the block emitter charged per
// block, the serial step ran to completion uncharged and only the
// post-hoc 20 B/row charge failed.)
func TestSerialStepBudgetAbortsMidEmission(t *testing.T) {
	var sb strings.Builder
	sb.WriteString("<d>")
	for i := 0; i < 40000; i++ {
		sb.WriteString("<e>t</e>")
	}
	sb.WriteString("</d>")
	c, err := store.Shred("big.xml", strings.NewReader(sb.String()), false)
	if err != nil {
		t.Fatal(err)
	}
	pool := store.NewPool()
	pool.Register(c)
	step := &Step{unary: unary{In: &DocRoot{Doc: "big.xml"}}, Axis: scj.Descendant,
		Test: scj.Test{Kind: scj.TestNode}, Variant: scj.LoopLifted, IterCol: "pos", ItemCol: "item"}

	free := NewExec(pool, nil)
	full, err := free.Run(step)
	if err != nil {
		t.Fatal(err)
	}
	if int64(full.N) != free.Stats.Step.Emitted || full.N < 80000 {
		t.Fatalf("unbudgeted step: %d rows, %d emitted", full.N, free.Stats.Step.Emitted)
	}
	// the same step is charged 20 B/row whether it runs serially or forced
	// parallel (28 B/row before: the drivers' 8 on top of execStep's 20)
	budgeted := NewExec(pool, nil)
	budgeted.Mem = NewMemBudget(1 << 30)
	if _, err := budgeted.Run(step); err != nil || budgeted.Mem.Used() < 20*int64(full.N) {
		t.Fatalf("budgeted step: err %v, %d bytes charged for %d rows", err, budgeted.Mem.Used(), full.N)
	}
	stepBytes := budgeted.Mem.Used()
	par := NewExec(pool, nil)
	par.Par = ParOptions{Workers: 4, Threshold: 1}
	par.Mem = NewMemBudget(1 << 30)
	if _, err := par.Run(step); err != nil || par.Mem.Used() != stepBytes {
		t.Fatalf("parallel step: err %v, %d bytes charged, serial charged %d", err, par.Mem.Used(), stepBytes)
	}

	e := NewExec(pool, nil)
	e.Mem = NewMemBudget(20 * int64(full.N) / 10)
	_, err = e.Run(step)
	var qe *xqerr.Error
	if !errors.As(err, &qe) || qe.Code != "XPDY0130" || !xqerr.IsResourceLimit(err) {
		t.Fatalf("err = %v, want %s", err, xqerr.CodeResourceLimit)
	}
	if got := e.Stats.Step.Emitted; got == 0 || got >= int64(full.N) {
		t.Fatalf("step emitted %d of %d pairs under a tenth of its budget: not aborted mid-emission", got, full.N)
	}
}
