//go:build race

package grammar

// raceEnabled reports a race-detector build, under which allocation
// sizes differ.
const raceEnabled = true
