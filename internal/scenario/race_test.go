//go:build race

package scenario

// raceEnabled reports whether the tests were built with -race.
const raceEnabled = true
