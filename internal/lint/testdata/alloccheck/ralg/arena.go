// Fixture: arena*.go is where row-sized makes live.
package ralg

func carve(n int) []uint64 { return make([]uint64, n) }
