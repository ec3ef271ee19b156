//go:build race

package apps

// raceEnabled reports whether the tests were built with -race.
const raceEnabled = true
