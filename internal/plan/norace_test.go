//go:build !race

package plan

// raceEnabled reports a race-detector build (see race_test.go).
const raceEnabled = false
