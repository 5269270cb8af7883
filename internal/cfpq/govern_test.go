package cfpq

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"mscfpq/internal/exec"
	"mscfpq/internal/grammar"
	"mscfpq/internal/graph"
	"mscfpq/internal/matrix"
)

// governedAlgorithms runs every query algorithm of the package against
// the same input under the given options, returning one error per
// algorithm. The two-cycle a^n b^n input keeps every fixpoint busy for
// many iterations, so governance has something to interrupt.
func governedAlgorithms(g *graphAndSources, opts ...Option) map[string]error {
	errs := map[string]error{}
	_, errs["AllPairs"] = AllPairs(g.g, g.w, opts...)
	_, errs["AllPairsSemiNaive"] = AllPairsSemiNaive(g.g, g.w, opts...)
	_, errs["MultiSource"] = MultiSource(g.g, g.w, g.src, opts...)
	_, errs["SinglePath"] = SinglePath(g.g, g.w, opts...)
	_, errs["MultiSourceSinglePath"] = MultiSourceSinglePath(g.g, g.w, g.src, opts...)
	if idx, err := NewIndex(g.g, g.w); err != nil {
		errs["MultiSourceSmart"] = err
	} else {
		_, errs["MultiSourceSmart"] = idx.MultiSourceSmart(g.src, opts...)
	}
	return errs
}

type graphAndSources struct {
	g   *graph.Graph
	w   *grammar.WCNF
	src *matrix.Vector
}

func anbnWCNF() *grammar.WCNF {
	return grammar.MustWCNF(grammar.AnBn("a", "b"))
}

func govInput(p int) *graphAndSources {
	g := twoCycleGraph(p, p-1)
	return &graphAndSources{
		g:   g,
		w:   anbnWCNF(),
		src: matrix.NewVectorFromIndices(g.NumVertices(), []int{0}),
	}
}

func TestCancelledContextAborts(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for name, err := range governedAlgorithms(govInput(20), WithContext(ctx)) {
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%s: err = %v, want context.Canceled", name, err)
		}
	}
}

// TestCancelledContextAbortsTerminalOnlyGrammar pins the degenerate
// case that once slipped past the governor: a grammar with no binary
// rules leaves every fixpoint body empty, so only explicit polls in
// the seeding loops and at the top of each round can observe a
// cancelled context. Before those polls existed, every algorithm
// "succeeded" on a context that was cancelled before the call.
func TestCancelledContextAbortsTerminalOnlyGrammar(t *testing.T) {
	in := govInput(20)
	in.w = grammar.MustWCNF(grammar.MustNew("S", []grammar.Production{
		{LHS: "S", RHS: []grammar.Symbol{grammar.T("a")}},
	}))
	if len(in.w.BinRules) != 0 {
		t.Fatalf("grammar has %d binary rules, want 0", len(in.w.BinRules))
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for name, err := range governedAlgorithms(in, WithContext(ctx)) {
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%s: err = %v, want context.Canceled", name, err)
		}
	}
}

func TestTimeoutAbortsPromptly(t *testing.T) {
	// Ungoverned, this input runs for minutes (matrix fixpoints); a 3ms
	// timeout must abort each algorithm long before that. The elapsed
	// bound is generous — timers on loaded machines can fire tens of
	// milliseconds late — but still far below the ungoverned runtime.
	in := govInput(700)
	start := time.Now()
	errs := governedAlgorithms(in, WithTimeout(3*time.Millisecond))
	elapsed := time.Since(start)
	for name, err := range errs {
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Errorf("%s: err = %v, want context.DeadlineExceeded", name, err)
		}
	}
	if limit := time.Duration(len(errs)) * 500 * time.Millisecond; elapsed > limit {
		t.Fatalf("governed algorithms took %v, want < %v", elapsed, limit)
	}
}

func TestBudgetAborts(t *testing.T) {
	// A budget of 3 relation entries is exhausted by the first product
	// of every matrix algorithm.
	for name, err := range governedAlgorithms(govInput(60), WithBudget(3)) {
		if !errors.Is(err, exec.ErrBudget) {
			t.Errorf("%s: err = %v, want exec.ErrBudget", name, err)
		}
	}
}

func TestGovernedResultsUnchanged(t *testing.T) {
	// Generous limits must not change any answer.
	in := govInput(16)
	want, err := MultiSource(in.g, in.w, in.src)
	if err != nil {
		t.Fatal(err)
	}
	got, err := MultiSource(in.g, in.w, in.src,
		WithTimeout(time.Minute), WithBudget(1<<40))
	if err != nil {
		t.Fatal(err)
	}
	if !got.Answer().Equal(want.Answer()) {
		t.Fatal("governed answer differs from ungoverned")
	}
}

// TestIndexSurvivesCancelledChunks is the consistency property of the
// redesigned Index: chunks aborted mid-fixpoint (budget or context) are
// rolled back, never partially committed, so a concurrently queried
// index still satisfies MultiSourceSmart(S) == MultiSource(union of
// sources seen so far restricted to S). Run with -race to also check
// the locking.
func TestIndexSurvivesCancelledChunks(t *testing.T) {
	in := govInput(24)
	n := in.g.NumVertices()
	idx, err := NewIndex(in.g, in.w)
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	// Saboteurs: queries doomed to abort (tiny budget, dead context).
	dead, cancel := context.WithCancel(context.Background())
	cancel()
	for i := 0; i < 4; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 8; j++ {
				src := matrix.NewVectorFromIndices(n, []int{(i*7 + j) % n})
				var opt Option
				if j%2 == 0 {
					opt = WithBudget(1)
				} else {
					opt = WithContext(dead)
				}
				if _, err := idx.MultiSourceSmart(src, opt); err == nil {
					// A cached chunk can legitimately succeed without new
					// work; nothing to assert.
					continue
				}
			}
		}()
	}
	// Honest queriers: every successful answer must match the
	// from-scratch algorithm on the same sources.
	type outcome struct {
		src *matrix.Vector
		got *matrix.Bool
	}
	results := make(chan outcome, 12)
	for i := 0; i < 3; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 4; j++ {
				src := matrix.NewVectorFromIndices(n, []int{(i*11 + j*5) % n, (i + j*13) % n})
				res, err := idx.MultiSourceSmart(src)
				if err != nil {
					t.Errorf("honest query failed: %v", err)
					return
				}
				results <- outcome{src: src, got: res.Answer()}
			}
		}()
	}
	wg.Wait()
	close(results)

	for out := range results {
		want, err := MultiSource(in.g, in.w, out.src)
		if err != nil {
			t.Fatal(err)
		}
		if !out.got.Equal(want.Answer()) {
			t.Fatalf("index answer for sources %v diverged from MultiSource", out.src.Indices())
		}
	}

	// The index must still answer fresh queries correctly afterwards.
	src := matrix.NewVectorFromIndices(n, []int{0})
	res, err := idx.MultiSourceSmart(src)
	if err != nil {
		t.Fatal(err)
	}
	want, err := MultiSource(in.g, in.w, src)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Answer().Equal(want.Answer()) {
		t.Fatal("index diverged after cancelled chunks")
	}
}

func TestBudgetErrorMessage(t *testing.T) {
	_, err := AllPairs(govInput(20).g, anbnWCNF(), WithBudget(1))
	if err == nil || !errors.Is(err, exec.ErrBudget) {
		t.Fatalf("err = %v", err)
	}
	if msg := fmt.Sprint(err); msg == "" {
		t.Fatal("empty budget error message")
	}
}
