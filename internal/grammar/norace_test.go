//go:build !race

package grammar

// raceEnabled reports a race-detector build (see race_test.go).
const raceEnabled = false
