package faults

import (
	"context"
	"errors"
	"testing"
)

// drain checks the site n times and returns the trials that fired.
func drain(t *testing.T, s *Site, n int) []uint64 {
	t.Helper()
	var fired []uint64
	for i := 0; i < n; i++ {
		if err := s.Err(); err != nil {
			var inj *Injected
			if !errors.As(err, &inj) {
				t.Fatalf("trial %d: error %v is not *Injected", i+1, err)
			}
			fired = append(fired, inj.Trial)
		}
	}
	return fired
}

func TestDisarmedIsNil(t *testing.T) {
	Reset()
	for i := 0; i < 1000; i++ {
		if err := RalgOp.Err(); err != nil {
			t.Fatalf("disarmed site fired: %v", err)
		}
	}
}

func TestDeterministicReplay(t *testing.T) {
	defer Reset()
	if err := Enable("ralg.op", 0.1, 42, ModeError); err != nil {
		t.Fatal(err)
	}
	first := drain(t, RalgOp, 10000)
	if len(first) == 0 {
		t.Fatal("probability 0.1 over 10000 trials never fired")
	}
	// Re-arming with the same spec resets the counter: identical stream.
	if err := Enable("ralg.op", 0.1, 42, ModeError); err != nil {
		t.Fatal(err)
	}
	second := drain(t, RalgOp, 10000)
	if len(first) != len(second) {
		t.Fatalf("replay fired %d times, first run %d", len(second), len(first))
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("replay diverged at firing %d: trial %d vs %d", i, first[i], second[i])
		}
	}
	// A different seed gives a different stream (overwhelmingly likely
	// over 10000 trials at p=0.1).
	if err := Enable("ralg.op", 0.1, 43, ModeError); err != nil {
		t.Fatal(err)
	}
	third := drain(t, RalgOp, 10000)
	same := len(third) == len(first)
	if same {
		for i := range first {
			if first[i] != third[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("seeds 42 and 43 produced identical firing streams")
	}
}

func TestProbabilityBounds(t *testing.T) {
	defer Reset()
	if err := Enable("ralg.op", 1, 7, ModeError); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if RalgOp.Err() == nil {
			t.Fatalf("probability 1 did not fire on trial %d", i+1)
		}
	}
	if err := Enable("ralg.op", 0, 7, ModeError); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if err := RalgOp.Err(); err != nil {
			t.Fatalf("probability 0 fired: %v", err)
		}
	}
	if err := Enable("ralg.op", 1.5, 7, ModeError); err == nil {
		t.Fatal("probability 1.5 accepted")
	}
}

func TestModes(t *testing.T) {
	defer Reset()
	if err := Enable("sched.admit", 1, 1, ModeCancel); err != nil {
		t.Fatal(err)
	}
	err := SchedAdmit.Err()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancel mode: %v does not wrap context.Canceled", err)
	}
	if !IsInjected(err) {
		t.Fatalf("cancel mode error %v not classified as injected", err)
	}

	if err := Enable("store.snapshot", 1, 1, ModePanic); err != nil {
		t.Fatal(err)
	}
	func() {
		defer func() {
			r := recover()
			if r == nil {
				t.Fatal("panic mode did not panic")
			}
			if inj, ok := r.(*Injected); !ok || inj.Site != "store.snapshot" {
				t.Fatalf("panic value %v is not the *Injected for store.snapshot", r)
			}
		}()
		StoreSnapshot.Err()
	}()
}

func TestSetSpecGrammar(t *testing.T) {
	defer Reset()
	if err := Set("ralg.op:0.5:99:panic, serve.stream:0.25:7"); err != nil {
		t.Fatal(err)
	}
	if !Armed() {
		t.Fatal("Set did not arm")
	}
	if RalgOp.cfg.Load() == nil || ServeStream.cfg.Load() == nil {
		t.Fatal("Set did not configure the named sites")
	}
	if SchedAdmit.cfg.Load() != nil {
		t.Fatal("Set configured an unnamed site")
	}
	Reset()
	if err := Set("*:0.5:99"); err != nil {
		t.Fatal(err)
	}
	for _, name := range Sites() {
		regMu.Lock()
		s := registry[name]
		regMu.Unlock()
		if s.cfg.Load() == nil {
			t.Fatalf("wildcard Set left %s unconfigured", name)
		}
	}
	Reset()
	for _, bad := range []string{
		"ralg.op:0.5",           // missing seed
		"nosuch.site:0.5:1",     // unknown site
		"ralg.op:x:1",           // bad probability
		"ralg.op:0.5:x",         // bad seed
		"ralg.op:0.5:1:explode", // bad mode
	} {
		if err := Set(bad); err == nil {
			t.Fatalf("Set(%q) accepted", bad)
		}
		if Armed() {
			t.Fatalf("Set(%q) armed despite the error", bad)
		}
	}
	if err := Set(""); err != nil {
		t.Fatalf("empty spec: %v", err)
	}
	if Armed() {
		t.Fatal("empty spec armed")
	}
}

func TestSitesCatalog(t *testing.T) {
	want := []string{"ralg.op", "sched.admit", "sched.release", "serve.stream", "store.snapshot"}
	got := Sites()
	if len(got) != len(want) {
		t.Fatalf("Sites() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Sites() = %v, want %v", got, want)
		}
	}
}
