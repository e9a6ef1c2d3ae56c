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
	small := Cost{Rows: 100}
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
	// a huge snapshot is capped at the per-query budget
	g3, err := s.Admit(ctx, Cost{Rows: 1 << 40})
	if err != nil {
		t.Fatal(err)
	}
	if g3.MemLimit() != 64<<20 {
		t.Fatalf("MemLimit = %d, want the %d cap", g3.MemLimit(), 64<<20)
	}
	g3.Release()
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
	g, err := s.Admit(ctx, Cost{Rows: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if g.MemLimit() != 0 {
		t.Fatalf("ungoverned MemLimit = %d, want 0", g.MemLimit())
	}
	g.Release()
}

// An admission over a known empty snapshot reserves the MemFloor
// grant, not the full MemPerQuery, and a floor larger than MemPerQuery
// is clamped to it.
func TestAdmitKnownEmptySnapshotReservesFloor(t *testing.T) {
	s := New(Config{MaxConcurrent: 8, MemPerQuery: 64 << 20, MemTotal: 128 << 20})
	ctx := context.Background()
	g, err := s.Admit(ctx, Cost{})
	if err != nil {
		t.Fatal(err)
	}
	if g.MemLimit() != MemFloor {
		t.Errorf("empty snapshot: MemLimit = %d, want MemFloor %d", g.MemLimit(), MemFloor)
	}
	small := New(Config{MemPerQuery: MemFloor / 2, MemTotal: MemFloor})
	h, err := small.Admit(ctx, Cost{})
	if err != nil {
		t.Fatal(err)
	}
	if h.MemLimit() != MemFloor/2 {
		t.Errorf("clamped floor: MemLimit = %d, want %d", h.MemLimit(), MemFloor/2)
	}
	h.Release()
	g.Release()
	if st := s.Stats(); st.MemInUse != 0 {
		t.Errorf("MemInUse = %d after all releases", st.MemInUse)
	}
}
