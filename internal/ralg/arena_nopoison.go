//go:build !arenapoison

package ralg

const poisoned, arenaFloor = false, 4 << 10 // bytes; a smaller request is not worth a region
