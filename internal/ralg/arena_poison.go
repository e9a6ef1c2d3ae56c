//go:build arenapoison

package ralg

// go test -tags arenapoison: dirty memory arrives as 0xA5…, resets
// overwrite what was handed out, and no request is too small for the
// arena, so the small tables of the test suites exercise it.
const poisoned, arenaFloor = true, 1
