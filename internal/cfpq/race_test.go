//go:build race

package cfpq

// raceEnabled reports a race-detector build, under which sync.Pool drops
// items at random and allocation counts vary.
const raceEnabled = true
