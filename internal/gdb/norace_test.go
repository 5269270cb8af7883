//go:build !race

package gdb

// raceEnabled reports a race-detector build (see race_test.go).
const raceEnabled = false
