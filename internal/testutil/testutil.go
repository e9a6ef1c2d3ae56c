// Package testutil holds assertions shared across the engine's test
// suites. It may only be imported from _test.go files.
package testutil

import (
	"runtime"
	"testing"
	"time"
)

// CheckGoroutines snapshots the process goroutine count and registers a
// cleanup that fails the test when the count has not settled back to
// the snapshot — plus a small slack for runtime helpers and lingering
// HTTP keep-alive connections — within five seconds. Call it before
// spawning the work under test; it is the shared no-goroutine-leak
// assertion of the serving, scheduler and chaos suites. Exiting
// goroutines are reaped asynchronously, so the cleanup polls rather
// than sampling once.
func CheckGoroutines(t testing.TB) {
	t.Helper()
	before := runtime.NumGoroutine()
	t.Cleanup(func() {
		const slack = 2
		deadline := time.Now().Add(5 * time.Second)
		for {
			if n := runtime.NumGoroutine(); n <= before+slack {
				return
			}
			if time.Now().After(deadline) {
				t.Errorf("goroutine leak: %d before, %d after (slack %d)",
					before, runtime.NumGoroutine(), slack)
				return
			}
			time.Sleep(10 * time.Millisecond)
		}
	})
}
