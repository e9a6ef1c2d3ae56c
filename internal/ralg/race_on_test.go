//go:build race

package ralg

const raceEnabled = true
