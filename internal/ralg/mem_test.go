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
	if m.release(60); !m.Exceeded() || m.Charge(1) {
		t.Fatal("latch reset by a release")
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
	// the refused request was never made: it is not held, and no peak
	if m.Used() != 0 || m.HighWater() != 60 {
		t.Fatalf("used %d, high water %d after two refusals and the release of all that was held", m.Used(), m.HighWater())
	}
}

// A serial step must be visible to the budget while it emits: under a
// budget a tenth of its output, descendant::node() from the root aborts
// mid-emission — Emitted stays below the full count — and Run returns
// the typed resource-limit error.
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
