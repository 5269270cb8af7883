//go:build race

package gdb

// raceEnabled reports a race-detector build, under which sync.Pool drops
// items at random, so byte counts that rely on pooled buffers vary.
const raceEnabled = true
