package cfpq

import (
	"errors"
	"math/rand"
	"runtime/debug"
	"testing"

	"mscfpq/internal/dataset"
	"mscfpq/internal/exec"
	"mscfpq/internal/grammar"
	"mscfpq/internal/matrix"
)

// sweepIndex is the sparse-sweep shape: an index over pathways/G1 and
// chunk-10 source sets cut in turn from a seeded permutation of the
// vertices, the first warm of them already solved.
func sweepIndex(t testing.TB, warm int) (*Index, []*matrix.Vector) {
	spec, err := dataset.ByName("pathways")
	if err != nil {
		t.Fatal(err)
	}
	g := dataset.Generate(dataset.Scaled(spec, 1))
	idx, err := NewIndex(g, grammar.MustWCNF(grammar.G1()))
	if err != nil {
		t.Fatal(err)
	}
	n := g.NumVertices()
	perm := rand.New(rand.NewSource(1)).Perm(n)
	var chunks []*matrix.Vector
	for lo := 0; lo+10 <= n; lo += 10 {
		chunks = append(chunks, matrix.NewVectorFromIndices(n, perm[lo:lo+10]))
	}
	for _, src := range chunks[:warm] {
		if _, err := idx.MultiSourceSmart(src); err != nil {
			t.Fatal(err)
		}
	}
	return idx, chunks[warm:]
}

// TestRestrictedSolveAllocsPinned pins what a warm restricted solve
// allocates per round: chunk queries of the pathways/G1 sweep against an
// index fifty chunks in. Activation is a test-and-set on the index's
// marks and the round's lists are reused, so what is left per round is
// the products and the rows they select. The collector is off while the
// allocations are counted, and the count is not checked under the race
// detector.
func TestRestrictedSolveAllocsPinned(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector")
	}
	const pinned = 31.0 // allocations per round measured on this shape (54.4 before the marks)
	idx, chunks := sweepIndex(t, 50)
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	calls, rounds := 0, 0
	allocs := testing.AllocsPerRun(20, func() {
		r, err := idx.MultiSourceSmart(chunks[calls])
		if err != nil {
			t.Fatal(err)
		}
		if calls > 0 { // AllocsPerRun does not count its warm-up call
			rounds += r.Rounds
		}
		calls++
	})
	perRound := allocs * 20 / float64(rounds)
	t.Logf("%.0f allocations per query, %.1f rounds per query, %.1f allocations per round", allocs, float64(rounds)/20, perRound)
	if perRound > pinned {
		t.Errorf("%.1f allocations per round, pinned at %.0f", perRound, pinned)
	}
}

// TestAbortedSolveLeavesMarks: a solve its budget stops on a warm index,
// at activation or in a later round, clears the marks of the sources it
// activated and of no other, so the processed sets read as before it,
// and the next solve from the same sources activates them again and
// runs its rounds to the exact answer.
func TestAbortedSolveLeavesMarks(t *testing.T) {
	twin, chunks := sweepIndex(t, 30)
	src := chunks[0]
	full, err := twin.MultiSourceSmart(src)
	if err != nil {
		t.Fatal(err)
	}
	ap, err := AllPairs(twin.G, twin.W)
	if err != nil {
		t.Fatal(err)
	}
	for _, budget := range []int64{1, full.Work / 2, full.Work - 1} {
		idx, _ := sweepIndex(t, 30)
		w := idx.W
		before := make([]*matrix.Vector, len(w.Nonterms))
		for a := range before {
			before[a] = idx.ProcessedSources(a)
		}
		if _, err := idx.MultiSourceSmart(src, WithBudget(budget)); !errors.Is(err, exec.ErrBudget) {
			t.Fatalf("budget %d of %d: err = %v, want ErrBudget", budget, full.Work, err)
		}
		for a := range before {
			if got := idx.ProcessedSources(a); !got.Equal(before[a]) {
				t.Fatalf("budget %d: the aborted solve changed the processed %s sources: %d → %d",
					budget, w.Nonterms[a], before[a].NVals(), got.NVals())
			}
		}
		r, err := idx.MultiSourceSmart(src)
		if err != nil {
			t.Fatal(err)
		}
		fresh := src.Clone()
		fresh.DiffInPlace(before[w.Start])
		if missed := fresh.Clone(); fresh.Empty() || r.Rounds < 2 || missed.DiffInPlace(r.Src[w.Start]) && !missed.Empty() {
			t.Fatalf("budget %d: the next solve ran %d rounds and activated %v for S, want the unprocessed sources %v among them",
				budget, r.Rounds, r.Src[w.Start].Ints(), fresh.Ints())
		}
		if !r.Answer().Equal(matrix.ExtractRows(ap.Start(), src)) {
			t.Fatalf("budget %d: the answer of the next solve differs from AllPairs", budget)
		}
		for a := range w.Nonterms {
			done := idx.ProcessedSources(a)
			if !matrix.ExtractRows(idx.Relation(a), done).Equal(matrix.ExtractRows(ap.T[a], done)) {
				t.Fatalf("budget %d: %s differs from AllPairs on its processed rows", budget, w.Nonterms[a])
			}
		}
	}
}
