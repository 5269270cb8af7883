package cfpq

import (
	"runtime"
	"testing"
)

// TestDenseColdSolveAllocs bounds what the dense-cold query allocates:
// MultiSourceSmart of denseColdInput on a fresh index, built before the
// count starts, on one processor and on two. A product reads the rows of
// M in place, gathers its rows in pooled room and copies them out once,
// and cuts bitmap rows from chunks: that measured 1.89 MB on one
// processor and 1.92 MB on two, where copying M and growing a row table
// per product took 3.16 MB and 3.41–3.45 MB. The bound is 1.25× the
// larger.
func TestDenseColdSolveAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled rooms at random")
	}
	const bound = 2_390_000
	g, w, src := denseColdInput(t)
	for _, procs := range []int{1, 2} {
		prev := runtime.GOMAXPROCS(procs)
		var least uint64
		for range 3 { // the least of three: a collection may empty the pools
			idx, err := NewIndex(g, w)
			if err != nil {
				t.Fatal(err)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if _, err := idx.MultiSourceSmart(src); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			if n := after.TotalAlloc - before.TotalAlloc; least == 0 || n < least {
				least = n
			}
		}
		runtime.GOMAXPROCS(prev)
		t.Logf("%d procs: %d bytes", procs, least)
		if least > bound {
			t.Errorf("%d procs: the dense-cold query allocated %d bytes, bound %d", procs, least, bound)
		}
	}
}
