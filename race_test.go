//go:build race

package schedsim

// raceEnabled reports whether the tests were built with -race.
const raceEnabled = true
