//go:build race

package core

// raceEnabled reports whether the tests were built with -race.
const raceEnabled = true
