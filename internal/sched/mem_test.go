package sched

import (
	"context"
	"errors"
	"testing"
)

// Two full reservations fill a 2×MemPerQuery pool; the third admission
// must fail with ErrMemExhausted — and give its execution slot back, so
// a release immediately re-opens admission.
func TestAdmitMemExhausted(t *testing.T) {
	s := New(Config{MaxConcurrent: 8, MemPerQuery: 1 << 20, MemTotal: 2 << 20})
	ctx := context.Background()
	g1, err := s.Admit(ctx, Cost{})
	if err != nil {
		t.Fatal(err)
	}
	g2, err := s.Admit(ctx, Cost{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Admit(ctx, Cost{}); !errors.Is(err, ErrMemExhausted) {
		t.Fatalf("third admit: err = %v, want ErrMemExhausted", err)
	}
	st := s.Stats()
	if st.MemRejected != 1 || st.MemInUse != 2<<20 || st.MemHighWater != 2<<20 {
		t.Fatalf("stats after rejection: %+v", st)
	}
	if st.Running != 2 {
		t.Fatalf("rejected admission leaked an execution slot: running = %d", st.Running)
	}
	g1.Release()
	g3, err := s.Admit(ctx, Cost{})
	if err != nil {
		t.Fatalf("admit after release: %v", err)
	}
	g3.Release()
	g2.Release()
	if st := s.Stats(); st.MemInUse != 0 {
		t.Fatalf("reservations not returned: MemInUse = %d", st.MemInUse)
	}
}

// A known cost sizes the reservation down from the per-query default,
// so small queries pack more densely into the pool.
func TestMemGrantSizedByCost(t *testing.T) {
	s := New(Config{MaxConcurrent: 8, MemPerQuery: 64 << 20, MemTotal: 64 << 20})
	ctx := context.Background()
	small := Cost{Rows: 100, Known: true}
	g, err := s.Admit(ctx, small)
	if err != nil {
		t.Fatal(err)
	}
	want := MemFloor + MemPerRow*small.Rows
	if g.MemLimit() != want {
		t.Fatalf("MemLimit = %d, want %d", g.MemLimit(), want)
	}
	// the sized reservation leaves room for several more small grants
	g2, err := s.Admit(ctx, small)
	if err != nil {
		t.Fatalf("second small admit: %v", err)
	}
	g.Release()
	g2.Release()
}

// A hint-less admission reserves the full per-query default; SetCost
// then shrinks the reservation (never grows it), returning the excess
// to the pool.
func TestSetCostShrinksMem(t *testing.T) {
	s := New(Config{MaxConcurrent: 8, MemPerQuery: 64 << 20, MemTotal: 128 << 20})
	ctx := context.Background()
	g, err := s.Admit(ctx, Cost{})
	if err != nil {
		t.Fatal(err)
	}
	if g.MemLimit() != 64<<20 {
		t.Fatalf("pre-cost MemLimit = %d, want full default", g.MemLimit())
	}
	g.SetCost(Cost{Rows: 10, Known: true})
	want := int64(MemFloor + MemPerRow*10)
	if g.MemLimit() != want {
		t.Fatalf("post-cost MemLimit = %d, want %d", g.MemLimit(), want)
	}
	if st := s.Stats(); st.MemInUse != want {
		t.Fatalf("excess not returned to pool: MemInUse = %d, want %d", st.MemInUse, want)
	}
	// a huge snapshot must not grow the reservation past the per-query cap
	g2, err := s.Admit(ctx, Cost{Rows: 1 << 40, Known: true})
	if err != nil {
		t.Fatal(err)
	}
	if g2.MemLimit() != 64<<20 {
		t.Fatalf("MemLimit = %d, want the %d cap", g2.MemLimit(), 64<<20)
	}
	g.Release()
	g2.Release()
	if st := s.Stats(); st.MemInUse != 0 {
		t.Fatalf("MemInUse = %d after all releases", st.MemInUse)
	}
}

// Without MemTotal the pool never rejects, but grants still carry the
// per-query budget; without MemPerQuery there is no memory governance
// at all.
func TestMemConfigCorners(t *testing.T) {
	s := New(Config{MaxConcurrent: 4, MemPerQuery: 1 << 20})
	ctx := context.Background()
	var grants []*Grant
	for i := 0; i < 4; i++ {
		g, err := s.Admit(ctx, Cost{})
		if err != nil {
			t.Fatalf("admit %d: %v", i, err)
		}
		if g.MemLimit() != 1<<20 {
			t.Fatalf("MemLimit = %d", g.MemLimit())
		}
		grants = append(grants, g)
	}
	for _, g := range grants {
		g.Release()
	}

	s = New(Config{MaxConcurrent: 4})
	g, err := s.Admit(ctx, Cost{Rows: 1000, Known: true})
	if err != nil {
		t.Fatal(err)
	}
	if g.MemLimit() != 0 {
		t.Fatalf("ungoverned MemLimit = %d, want 0", g.MemLimit())
	}
	g.Release()
}

// An engine-level admission over an empty pool knows its snapshot is
// zero rows: it reserves the MemFloor grant, not the full MemPerQuery —
// Known, not a non-zero Rows, is what tells it from an admission whose
// cost is not known yet.
func TestAdmitKnownEmptySnapshotReservesFloor(t *testing.T) {
	s := New(Config{MaxConcurrent: 8, MemPerQuery: 64 << 20, MemTotal: 128 << 20})
	ctx := context.Background()
	g, err := s.Admit(ctx, Cost{Known: true})
	if err != nil {
		t.Fatal(err)
	}
	if g.MemLimit() != MemFloor {
		t.Errorf("known empty snapshot: MemLimit = %d, want MemFloor %d", g.MemLimit(), MemFloor)
	}
	unknown, err := s.Admit(ctx, Cost{})
	if err != nil {
		t.Fatal(err)
	}
	if unknown.MemLimit() != 64<<20 {
		t.Errorf("unknown cost: MemLimit = %d, want the full MemPerQuery %d", unknown.MemLimit(), 64<<20)
	}
	if st := s.Stats(); st.MemInUse != MemFloor+64<<20 {
		t.Errorf("MemInUse = %d, want %d", st.MemInUse, MemFloor+64<<20)
	}
	// a floor larger than MemPerQuery is clamped to it
	small := New(Config{MemPerQuery: MemFloor / 2, MemTotal: MemFloor})
	h, err := small.Admit(ctx, Cost{Known: true})
	if err != nil {
		t.Fatal(err)
	}
	if h.MemLimit() != MemFloor/2 {
		t.Errorf("clamped floor: MemLimit = %d, want %d", h.MemLimit(), MemFloor/2)
	}
	h.Release()
	g.Release()
	unknown.Release()
	if st := s.Stats(); st.MemInUse != 0 {
		t.Errorf("MemInUse = %d after all releases", st.MemInUse)
	}
}
