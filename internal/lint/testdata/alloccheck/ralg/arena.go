// Fixture: arena*.go is where row-sized makes (and maps) live.
package ralg

func carve(n int) []uint64 { return make([]uint64, n) }

func index(n int) map[int64]int32 { return make(map[int64]int32, n) }
