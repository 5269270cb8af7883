package cfpq

import (
	"errors"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"mscfpq/internal/dataset"
	"mscfpq/internal/exec"
	"mscfpq/internal/grammar"
	"mscfpq/internal/graph"
	"mscfpq/internal/matrix"
	"mscfpq/internal/obs"
)

// work is what a driver run spends: its rounds, its governor charge and
// the kernel counters its trace records.
type work struct {
	rounds, work, mulOps, mulNNZ, addOps int64
}

func traced(t *testing.T, solve func(tr *obs.Trace) (*Result, error)) work {
	t.Helper()
	tr := obs.NewTrace("pinned", time.Now())
	r, err := solve(tr)
	if err != nil {
		t.Fatal(err)
	}
	tr.Close()
	root := tr.Root()
	return work{int64(r.Rounds), r.Work, root.Total(obs.KeyMulOps), root.Total(obs.KeyMulNNZ), root.Total(obs.KeyAddOps)}
}

// denseColdInput is the dense-cold query shape: go-hierarchy@0.02 under
// G2, 100 sources drawn from a seeded permutation.
func denseColdInput(t testing.TB) (*graph.Graph, *grammar.WCNF, *matrix.Vector) {
	spec, err := dataset.ByName("go-hierarchy")
	if err != nil {
		t.Fatal(err)
	}
	g := dataset.Generate(dataset.Scaled(spec, 0.02))
	n := g.NumVertices()
	return g, grammar.MustWCNF(grammar.G2()), matrix.NewVectorFromIndices(n, rand.New(rand.NewSource(1)).Perm(n)[:100])
}

// TestFixpointWorkPinned pins what the driver spends on a dense-cold
// query against a fresh index and on one unrestricted run — rounds,
// work and the kernel counters, at the values the list-only kernels
// recorded — so a kernel change that claims the same work must do
// exactly that. The relations must equal AllPairs on the claimed rows,
// and a run cut short by its budget must leave only true facts and
// claim no source.
func TestFixpointWorkPinned(t *testing.T) {
	g, w, src := denseColdInput(t)
	ap, err := AllPairs(g, w)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := NewIndex(g, w)
	if err != nil {
		t.Fatal(err)
	}
	var ms *MSResult
	got := traced(t, func(tr *obs.Trace) (*Result, error) {
		ms, err = idx.MultiSourceSmart(src, WithTrace(tr))
		if err != nil {
			return nil, err
		}
		return ms.Result, nil
	})
	if want := (work{rounds: 15, work: 2516956, mulOps: 16, mulNNZ: 2490457, addOps: 15}); got != want {
		t.Errorf("dense-cold query spent %+v, want %+v", got, want)
	}
	for a := range w.Nonterms {
		done := idx.ProcessedSources(a)
		if !matrix.ExtractRows(idx.Relation(a), done).Equal(matrix.ExtractRows(ap.T[a], done)) {
			t.Errorf("%s differs from AllPairs on its processed rows", w.Nonterms[a])
		}
	}
	if !ms.Answer().Equal(matrix.ExtractRows(ap.Start(), src)) {
		t.Error("answer differs from AllPairs")
	}

	cut, err := NewIndex(g, w)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cut.MultiSourceSmart(src, WithBudget(got.work/2)); !errors.Is(err, exec.ErrBudget) {
		t.Fatalf("half the budget: err = %v, want ErrBudget", err)
	}
	for a := range w.Nonterms {
		if extra := matrix.Sub(cut.Relation(a), ap.T[a]); !extra.Empty() {
			t.Errorf("cancelled run left false facts in %s: %v", w.Nonterms[a], extra.Pairs()[:1])
		}
		if p := cut.ProcessedSources(a); !p.Empty() {
			t.Errorf("cancelled run claimed sources %v for %s", p.Ints(), w.Nonterms[a])
		}
	}

	sn := traced(t, func(tr *obs.Trace) (*Result, error) {
		r, err := AllPairsSemiNaive(g, w, WithTrace(tr))
		if err == nil {
			for a := range r.T {
				if !r.T[a].Equal(ap.T[a]) {
					t.Errorf("AllPairsSemiNaive: %s differs from AllPairs", w.Nonterms[a])
				}
			}
		}
		return r, err
	})
	if want := (work{rounds: 12, work: 2311292, mulOps: 13, mulNNZ: 2281886, addOps: 11}); sn != want {
		t.Errorf("AllPairsSemiNaive spent %+v, want %+v", sn, want)
	}
}

// TestSinglePathAllocPinned pins what a witness run costs in bytes. Its
// log shares the rows the kernel allocated anyway, so on
// go-hierarchy@0.0555 under G1 SinglePath allocates at most 1.5× what
// AllPairsSemiNaive does; filing a map entry per relation entry cost
// about 200×. One processor keeps the count free of helper goroutines.
func TestSinglePathAllocPinned(t *testing.T) {
	spec, err := dataset.ByName("go-hierarchy")
	if err != nil {
		t.Fatal(err)
	}
	g, w := dataset.Generate(dataset.Scaled(spec, 0.0555)), grammar.MustWCNF(grammar.G1())
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	alloc := func(solve func() (*Result, error)) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := solve(); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	semi := alloc(func() (*Result, error) { return AllPairsSemiNaive(g, w) })
	sp := alloc(func() (*Result, error) {
		r, err := SinglePath(g, w)
		if err != nil {
			return nil, err
		}
		return r.Result, nil
	})
	if float64(sp) > 1.5*float64(semi) {
		t.Fatalf("SinglePath allocated %d bytes, AllPairsSemiNaive %d: over 1.5×", sp, semi)
	}
	t.Logf("SinglePath %d bytes, AllPairsSemiNaive %d", sp, semi)
}
