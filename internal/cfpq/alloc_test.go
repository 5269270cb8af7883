package cfpq

import (
	"runtime"
	"testing"
)

// TestDenseColdSolveAllocs bounds what the dense-cold query allocates:
// MultiSourceSmart of denseColdInput on a fresh index, built before the
// count starts, on one processor and on two. A product reads the rows of
// M in place, gathers its rows in pooled room and copies them out once,
// and cuts bitmap rows from chunks, and the label relations are the
// graph's matrices, which seeding does not copy: that measured 1.79 MB
// on one processor and 1.80–1.87 MB on two (1.83 MB typical), where
// copying the label rows took 1.89 and 1.92 MB, and copying M and
// growing a row table per product 3.16 MB and 3.41–3.45 MB. The bound is
// 1.25× the larger typical figure.
func TestDenseColdSolveAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled rooms at random")
	}
	const bound = 2_290_000
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
