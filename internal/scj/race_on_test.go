//go:build race

package scj

const raceEnabled = true
