package cfpq

import (
	"math/rand"
	"testing"

	"mscfpq/internal/grammar"
	"mscfpq/internal/graph"
	"mscfpq/internal/matrix"
)

// paperGraph is the example graph D of Figure 1 (0-based vertex ids).
func paperGraph() *graph.Graph {
	g := graph.New(6)
	g.AddEdge(0, "a", 1)
	g.AddEdge(1, "a", 2)
	g.AddEdge(1, "b", 2)
	g.AddEdge(1, "b", 5)
	g.AddEdge(2, "d", 4)
	g.AddEdge(3, "c", 2)
	g.AddEdge(4, "c", 3)
	g.AddEdge(4, "d", 5)
	g.AddEdge(5, "d", 4)
	g.AddVertexLabel(0, "x")
	g.AddVertexLabel(2, "x")
	g.AddVertexLabel(2, "y")
	g.AddVertexLabel(5, "y")
	return g
}

// cndGrammar is the paper's running query: L = { c^n y d^n } where y is
// a vertex label (Section 2.3).
func cndGrammar() *grammar.WCNF {
	return grammar.MustWCNF(grammar.MustNew("S", []grammar.Production{
		{LHS: "S", RHS: []grammar.Symbol{grammar.T("c"), grammar.N("S"), grammar.T("d")}},
		{LHS: "S", RHS: []grammar.Symbol{grammar.T("c"), grammar.T("y"), grammar.T("d")}},
	}))
}

// twoCycleGraph builds the classic CFPQ worst-case input: a cycle of p
// a-edges and a cycle of q b-edges sharing vertex 0.
func twoCycleGraph(p, q int) *graph.Graph {
	g := graph.New(p + q)
	for i := 0; i < p; i++ {
		g.AddEdge(i, "a", (i+1)%p)
	}
	// b-cycle: 0 -> p -> p+1 -> ... -> p+q-1 -> 0.
	prev := 0
	for i := 0; i < q-1; i++ {
		g.AddEdge(prev, "b", p+i)
		prev = p + i
	}
	g.AddEdge(prev, "b", 0)
	return g
}

func pairsSet(m *matrix.Bool) map[[2]int]bool {
	out := map[[2]int]bool{}
	for _, p := range m.Pairs() {
		out[p] = true
	}
	return out
}

func TestAllPairsPaperExample(t *testing.T) {
	r, err := AllPairs(paperGraph(), cndGrammar())
	if err != nil {
		t.Fatal(err)
	}
	got := pairsSet(r.Start())
	want := map[[2]int]bool{{3, 4}: true, {4, 5}: true}
	if len(got) != len(want) {
		t.Fatalf("pairs = %v, want %v", r.Pairs(), want)
	}
	for p := range want {
		if !got[p] {
			t.Fatalf("missing pair %v in %v", p, r.Pairs())
		}
	}
}

func TestAllPairsAnBnTwoCycles(t *testing.T) {
	// With cycles of length 2 (a) and 3 (b), vertex 0 relates to itself
	// via a^n b^n whenever n ≡ 0 mod 2 and n ≡ 0 mod 3, i.e. n = 6k.
	g := twoCycleGraph(2, 3)
	w := grammar.MustWCNF(grammar.AnBn("a", "b"))
	r, err := AllPairs(g, w)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Start().Get(0, 0) {
		t.Fatalf("expected (0,0) in relation; got %v", r.Pairs())
	}
	// All-pairs on this construction is known to relate every a-cycle
	// vertex to every b-cycle vertex eventually; sanity: relation must
	// not be empty and must stay within bounds.
	if r.Start().NVals() == 0 {
		t.Fatal("empty relation")
	}
}

func TestAllPairsEmptyGraphAndGrammarMismatch(t *testing.T) {
	w := grammar.MustWCNF(grammar.AnBn("a", "b"))
	r, err := AllPairs(graph.New(4), w) // no edges at all
	if err != nil {
		t.Fatal(err)
	}
	if r.Start().NVals() != 0 {
		t.Fatal("relation on empty graph must be empty")
	}
	// Graph whose labels don't intersect the grammar's terminals.
	g := graph.New(3)
	g.AddEdge(0, "z", 1)
	r, err = AllPairs(g, w)
	if err != nil {
		t.Fatal(err)
	}
	if r.Start().NVals() != 0 {
		t.Fatal("relation with unrelated labels must be empty")
	}
}

func TestAllPairsNilInputs(t *testing.T) {
	if _, err := AllPairs(nil, nil); err == nil {
		t.Fatal("expected error for nil inputs")
	}
}

func TestAllPairsEpsilonGrammar(t *testing.T) {
	w := grammar.MustWCNF(grammar.Dyck1("a", "b"))
	g := graph.New(3)
	g.AddEdge(0, "a", 1)
	g.AddEdge(1, "b", 2)
	r, err := AllPairs(g, w)
	if err != nil {
		t.Fatal(err)
	}
	// eps relates every vertex to itself; ab relates 0 to 2.
	for i := 0; i < 3; i++ {
		if !r.Start().Get(i, i) {
			t.Fatalf("missing trivial pair (%d,%d)", i, i)
		}
	}
	if !r.Start().Get(0, 2) || r.Start().Get(0, 1) {
		t.Fatalf("dyck relation wrong: %v", r.Pairs())
	}
}

func TestAllPairsInverseLabels(t *testing.T) {
	// S -> a_r a : pairs (v,v) for every v with an incoming... precisely,
	// v -a_r-> u -a-> w means edges u->v and u->w. From vertex 1: edge
	// 0->1 gives 1 -a_r-> 0, then 0 -a-> 1 or 0 -a-> 2.
	g := graph.New(3)
	g.AddEdge(0, "a", 1)
	g.AddEdge(0, "a", 2)
	w := grammar.MustWCNF(grammar.MustNew("S", []grammar.Production{
		{LHS: "S", RHS: []grammar.Symbol{grammar.T("a_r"), grammar.T("a")}},
	}))
	r, err := AllPairs(g, w)
	if err != nil {
		t.Fatal(err)
	}
	want := map[[2]int]bool{{1, 1}: true, {1, 2}: true, {2, 1}: true, {2, 2}: true}
	got := pairsSet(r.Start())
	if len(got) != len(want) {
		t.Fatalf("pairs = %v", r.Pairs())
	}
	for p := range want {
		if !got[p] {
			t.Fatalf("missing %v in %v", p, r.Pairs())
		}
	}
}

func TestMultiSourceMatchesAllPairsOnPaperExample(t *testing.T) {
	g := paperGraph()
	w := cndGrammar()
	ap, err := AllPairs(g, w)
	if err != nil {
		t.Fatal(err)
	}
	for _, srcIdx := range [][]int{{3}, {4}, {0}, {3, 4}, {0, 1, 2, 3, 4, 5}} {
		src := matrix.NewVectorFromIndices(6, srcIdx)
		ms, err := MultiSource(g, w, src)
		if err != nil {
			t.Fatal(err)
		}
		want := matrix.ExtractRows(ap.Start(), src)
		if !ms.Answer().Equal(want) {
			t.Fatalf("src=%v: MS=%v want %v", srcIdx, ms.Answer().Pairs(), want.Pairs())
		}
	}
}

func TestMultiSourceSizeMismatch(t *testing.T) {
	g := paperGraph()
	if _, err := MultiSource(g, cndGrammar(), matrix.NewVector(5)); err == nil {
		t.Fatal("expected size mismatch error")
	}
	if _, err := MultiSource(g, cndGrammar(), nil); err == nil {
		t.Fatal("expected nil source error")
	}
}

func TestMultiSourceEmptySources(t *testing.T) {
	ms, err := MultiSource(paperGraph(), cndGrammar(), matrix.NewVector(6))
	if err != nil {
		t.Fatal(err)
	}
	if ms.Answer().NVals() != 0 {
		t.Fatal("empty source set must yield empty answer")
	}
}

// randomGraph builds a random labeled graph for property tests.
func randomGraph(rng *rand.Rand, n, edges int, labels []string) *graph.Graph {
	g := graph.New(n)
	for i := 0; i < edges; i++ {
		g.AddEdge(rng.Intn(n), labels[rng.Intn(len(labels))], rng.Intn(n))
	}
	return g
}

// testGrammars are the grammars the property tests run. leftlinear,
// S -> S a | a, has a rule whose head is its own left factor, as the
// path compiler's left-folded helpers do: a product that reads T^S in
// place reads what an earlier product of the same round added to it.
func testGrammars() map[string]*grammar.WCNF {
	return map[string]*grammar.WCNF{
		"anbn":    grammar.MustWCNF(grammar.AnBn("a", "b")),
		"dyck":    grammar.MustWCNF(grammar.Dyck1("a", "b")),
		"samegen": grammar.MustWCNF(grammar.SameGen("a", "b")),
		"g2":      grammar.MustWCNF(grammar.G2()),
		"leftlinear": grammar.MustWCNF(grammar.MustNew("S", []grammar.Production{
			{LHS: "S", RHS: []grammar.Symbol{grammar.N("S"), grammar.T("a")}},
			{LHS: "S", RHS: []grammar.Symbol{grammar.T("a")}},
		})),
	}
}

// Property: MultiSource answers equal row-filtered AllPairs answers, for
// random graphs, grammars and source sets. This is the core correctness
// claim of Algorithm 2.
func TestMultiSourceEqualsFilteredAllPairsProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(2021))
	labels := []string{"a", "b", "subClassOf"}
	for name, w := range testGrammars() {
		w := w
		t.Run(name, func(t *testing.T) {
			for trial := 0; trial < 15; trial++ {
				n := 3 + rng.Intn(18)
				g := randomGraph(rng, n, 2+rng.Intn(3*n), labels)
				ap, err := AllPairs(g, w)
				if err != nil {
					t.Fatal(err)
				}
				src := matrix.NewVector(n)
				for v := 0; v < n; v++ {
					if rng.Intn(3) == 0 {
						src.Set(v)
					}
				}
				ms, err := MultiSource(g, w, src)
				if err != nil {
					t.Fatal(err)
				}
				want := matrix.ExtractRows(ap.Start(), src)
				if !ms.Answer().Equal(want) {
					t.Fatalf("trial %d n=%d: MS != filtered AP\nMS:   %v\nwant: %v",
						trial, n, ms.Answer().Pairs(), want.Pairs())
				}
			}
		})
	}
}

// Property: semi-naive evaluation computes exactly the Algorithm 1
// relations on random inputs.
func TestSemiNaiveEqualsAllPairsProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(85))
	labels := []string{"a", "b", "subClassOf"}
	for name, w := range testGrammars() {
		w := w
		t.Run(name, func(t *testing.T) {
			for trial := 0; trial < 12; trial++ {
				n := 3 + rng.Intn(16)
				g := randomGraph(rng, n, 2+rng.Intn(3*n), labels)
				ap, err := AllPairs(g, w)
				if err != nil {
					t.Fatal(err)
				}
				sn, err := AllPairsSemiNaive(g, w)
				if err != nil {
					t.Fatal(err)
				}
				for a := 0; a < w.NumNonterms(); a++ {
					if !ap.T[a].Equal(sn.T[a]) {
						t.Fatalf("trial %d: %s relation differs", trial, w.Nonterms[a])
					}
				}
			}
		})
	}
}

func TestSemiNaivePaperExample(t *testing.T) {
	sn, err := AllPairsSemiNaive(paperGraph(), cndGrammar())
	if err != nil {
		t.Fatal(err)
	}
	got := pairsSet(sn.Start())
	if len(got) != 2 || !got[[2]int{3, 4}] || !got[[2]int{4, 5}] {
		t.Fatalf("pairs = %v", sn.Pairs())
	}
	if _, err := AllPairsSemiNaive(nil, nil); err == nil {
		t.Fatal("expected error for nil inputs")
	}
}

func TestResultAccessors(t *testing.T) {
	r, err := AllPairs(paperGraph(), cndGrammar())
	if err != nil {
		t.Fatal(err)
	}
	src := matrix.NewVectorFromIndices(6, []int{3})
	if got := r.PairsFrom(src); len(got) != 1 || got[0] != [2]int{3, 4} {
		t.Fatalf("PairsFrom = %v", got)
	}
}
