//go:build race

package plan

// raceEnabled reports a race-detector build, under which sync.Pool drops
// items at random, so allocation counts that rely on pooled buffers vary.
const raceEnabled = true
