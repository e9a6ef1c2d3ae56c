//go:build !race

package scj

const raceEnabled = false
