//go:build !race

package schedsim

const raceEnabled = false
