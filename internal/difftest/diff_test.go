package difftest

import (
	"flag"
	"math/rand"
	"slices"
	"testing"

	"mscfpq/internal/gen"
	"mscfpq/internal/grammar"
	"mscfpq/internal/graph"
	"mscfpq/internal/oracle"
)

// seedFlag shifts the whole generated corpus: go test ./internal/difftest
// -seed=N. Every failure report prints the single instance seed that
// reproduces it regardless of the base seed used.
var seedFlag = flag.Int64("seed", 1, "base seed for generated differential-test instances")

// reportCFPQFailure minimizes the failing instance, dumps a repro, and
// fails the test with everything needed to replay it.
func reportCFPQFailure(t *testing.T, inst gen.Instance, err error, check func(gen.Instance) error) {
	t.Helper()
	min := Minimize(inst, func(i gen.Instance) bool { return check(i) != nil })
	minErr := check(min)
	dir, werr := WriteRepro(min)
	if werr != nil {
		t.Logf("writing repro: %v", werr)
	}
	t.Errorf("seed %d (rerun: go test ./internal/difftest -seed=%d): %v\n"+
		"minimized to %d edges, %d sources (%v); repro dumped to %s\ngrammar:\n%s",
		inst.Seed, inst.Seed, err,
		min.G.NumEdges(), len(min.Sources), minErr, dir, min.Grammar)
}

// TestDifferentialCFPQ drives all six CFPQ evaluators — AllPairs,
// AllPairsSemiNaive, Worklist, SinglePath, MultiSource,
// MultiSourceSinglePath, the smart Index, and WorklistMultiSource —
// against the independent edge-list oracle on seeded random instances.
func TestDifferentialCFPQ(t *testing.T) {
	failures := 0
	for i := 0; i < cfpqInstances; i++ {
		inst := gen.NewInstance(*seedFlag+int64(i), maxGraphVertices)
		if err := CheckCFPQ(inst); err != nil {
			reportCFPQFailure(t, inst, err, CheckCFPQ)
			if failures++; failures >= 3 {
				t.Fatalf("stopping after %d failing instances", failures)
			}
		}
	}
}

// TestDifferentialEval drives the unified Eval entry point with every
// WithAlgorithm option against the oracle, and asserts tracing and
// metrics never change answers. A quarter of the CFPQ corpus: each
// instance runs all six algorithms twice (plain and traced) plus the
// auto-resolution and all-pairs variants.
func TestDifferentialEval(t *testing.T) {
	failures := 0
	for i := 0; i < cfpqInstances/4; i++ {
		inst := gen.NewInstance(*seedFlag+int64(3_000_000+i), maxGraphVertices)
		if err := CheckEval(inst); err != nil {
			reportCFPQFailure(t, inst, err, CheckEval)
			if failures++; failures >= 3 {
				t.Fatalf("stopping after %d failing instances", failures)
			}
		}
	}
}

// TestDifferentialRPQ drives the RPQ path (the regex compiled to a
// grammar and run by the multiple-source driver, then by an Algorithm 3
// index over two source chunks) against the relation-algebra oracle on
// seeded random (graph, regex, source-set) cases. The regexes draw
// their labels from the edge labels and the vertex labels, so a label's
// zero-length step on a vertex is checked too.
func TestDifferentialRPQ(t *testing.T) {
	failures := 0
	for i := 0; i < rpqInstances; i++ {
		seed := *seedFlag + int64(1_000_000+i)
		rng := rand.New(rand.NewSource(seed))
		g := gen.RandomGraph(rng, 2+rng.Intn(maxGraphVertices-1), gen.DefaultLabels)
		query := gen.RandomRegex(rng, slices.Concat(gen.DefaultLabels, gen.VertexLabels), 3)
		sources := gen.Sources(rng, g.NumVertices())
		if err := CheckRPQ(g, query, sources); err != nil {
			t.Errorf("seed %d (rerun: go test ./internal/difftest -seed=%d): %v", seed, *seedFlag, err)
			if failures++; failures >= 3 {
				t.Fatalf("stopping after %d failing instances", failures)
			}
		}
	}
}

// TestOracleAgreesWithMembership cross-validates the harness's own
// foundation: for a word sampled from a random grammar's language, a
// chain graph spelling that word must contain the (0, len(word)) start
// pair in the oracle's relation, and the word must pass the independent
// CYK membership checker.
func TestOracleAgreesWithMembership(t *testing.T) {
	checked := 0
	for i := 0; checked < 25 && i < 400; i++ {
		seed := *seedFlag + int64(2_000_000+i)
		rng := rand.New(rand.NewSource(seed))
		gr := gen.RandomGrammar(rng, gen.DefaultLabels)
		word, ok := grammar.Sample(gr, rng, 60)
		if !ok || len(word) == 0 || len(word) > 12 {
			continue
		}
		checked++
		w := grammar.MustWCNF(gr)
		if !w.Accepts(word) {
			t.Fatalf("seed %d: sampled word %v rejected by WCNF of\n%s", seed, word, gr)
		}
		g := chainFor(word)
		if ref := oracle.CFPQ(g, w); !ref.Has(w.Start, 0, len(word)) {
			t.Fatalf("seed %d: oracle misses pair (0,%d) on chain for word %v of\n%s",
				seed, len(word), word, gr)
		}
	}
	if checked == 0 {
		t.Fatal("no sampled words; generator or sampler is broken")
	}
}

// TestMinimizeShrinks exercises the failure minimizer on a synthetic
// predicate: a "failure" that only needs one a-labeled edge must shrink
// to exactly that — one edge, no vertex labels, no sources.
func TestMinimizeShrinks(t *testing.T) {
	inst := gen.NewInstance(*seedFlag+7_000_000, maxGraphVertices)
	hasA := func(i gen.Instance) bool {
		found := false
		i.G.Edges(func(src int, label string, dst int) bool {
			if label == "a" {
				found = true
				return false
			}
			return true
		})
		return found
	}
	if !hasA(inst) {
		inst.G.AddEdge(0, "a", 1%inst.G.NumVertices())
	}
	min := Minimize(inst, hasA)
	if min.G.NumEdges() != 1 {
		t.Fatalf("minimized to %d edges, want 1", min.G.NumEdges())
	}
	if len(min.Sources) != 0 {
		t.Fatalf("minimized sources %v, want none", min.Sources)
	}
	if !hasA(min) {
		t.Fatal("minimized instance no longer fails the predicate")
	}
}

// chainFor builds the chain graph whose single 0..len(word) walk spells
// the word: forward edges for plain labels, reversed stored edges for
// inverse "x_r" labels.
func chainFor(word []string) *graph.Graph {
	g := graph.New(len(word) + 1)
	for i, l := range word {
		if grammar.IsInverseLabel(l) {
			g.AddEdge(i+1, grammar.InverseLabel(l), i)
		} else {
			g.AddEdge(i, l, i+1)
		}
	}
	return g
}
