//go:build !race

package cfpq

// raceEnabled reports a race-detector build (see race_test.go).
const raceEnabled = false
