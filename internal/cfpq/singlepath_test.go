package cfpq

import (
	"math/rand"
	"testing"

	"mscfpq/internal/grammar"
	"mscfpq/internal/graph"
)

func TestSinglePathRelationMatchesAllPairs(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	labels := []string{"a", "b", "subClassOf"}
	for name, w := range testGrammars() {
		w := w
		t.Run(name, func(t *testing.T) {
			for trial := 0; trial < 8; trial++ {
				n := 3 + rng.Intn(14)
				g := randomGraph(rng, n, 2+rng.Intn(3*n), labels)
				ap, err := AllPairs(g, w)
				if err != nil {
					t.Fatal(err)
				}
				sp, err := SinglePath(g, w)
				if err != nil {
					t.Fatal(err)
				}
				for a := 0; a < w.NumNonterms(); a++ {
					if !ap.T[a].Equal(sp.T[a]) {
						t.Fatalf("trial %d: %s relation differs", trial, w.Nonterms[a])
					}
				}
			}
		})
	}
}

// verifyPath checks an extracted path end to end: every step is a real
// edge (or vertex label), steps chain, and the word is in the language.
func verifyPath(t *testing.T, g *graph.Graph, w *grammar.WCNF, nonterm string, src, dst int, steps []PathStep) {
	t.Helper()
	cur := src
	for _, s := range steps {
		if s.Src != cur {
			t.Fatalf("path step %+v does not chain from %d", s, cur)
		}
		if s.VertexLabel {
			if s.Src != s.Dst || !g.HasVertexLabel(s.Src, s.Label) {
				t.Fatalf("invalid vertex-label step %+v", s)
			}
		} else if !g.HasEdge(s.Src, s.Label, s.Dst) {
			t.Fatalf("path step %+v is not an edge", s)
		}
		cur = s.Dst
	}
	if cur != dst {
		t.Fatalf("path ends at %d, want %d", cur, dst)
	}
	a := w.NontermID(nonterm)
	if !w.Derives(a, Word(steps)) {
		t.Fatalf("word %v not derivable from %s", Word(steps), nonterm)
	}
}

func TestSinglePathExtractionPaperExample(t *testing.T) {
	g := paperGraph()
	w := cndGrammar()
	sp, err := SinglePath(g, w)
	if err != nil {
		t.Fatal(err)
	}
	for _, pair := range sp.Pairs() {
		steps, err := sp.Path(pair[0], pair[1])
		if err != nil {
			t.Fatal(err)
		}
		verifyPath(t, g, w, "S", pair[0], pair[1], steps)
	}
	// (3,4) must be witnessed by the word c y d.
	steps, err := sp.Path(3, 4)
	if err != nil {
		t.Fatal(err)
	}
	word := Word(steps)
	if len(word) != 3 || word[0] != "c" || word[1] != "y" || word[2] != "d" {
		t.Fatalf("witness word = %v, want [c y d]", word)
	}
	if !steps[1].VertexLabel {
		t.Fatal("middle step must be a vertex label")
	}
}

func TestSinglePathExtractionProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	labels := []string{"a", "b"}
	for name, w := range testGrammars() {
		if name == "g2" || name == "samegen" {
			continue // their terminals aren't in the label set
		}
		w := w
		t.Run(name, func(t *testing.T) {
			for trial := 0; trial < 10; trial++ {
				n := 3 + rng.Intn(12)
				g := randomGraph(rng, n, 2+rng.Intn(3*n), labels)
				sp, err := SinglePath(g, w)
				if err != nil {
					t.Fatal(err)
				}
				for _, pair := range sp.Pairs() {
					steps, err := sp.Path(pair[0], pair[1])
					if err != nil {
						t.Fatalf("trial %d pair %v: %v", trial, pair, err)
					}
					verifyPath(t, g, w, "S", pair[0], pair[1], steps)
				}
			}
		})
	}
}

func TestSinglePathEpsilonPair(t *testing.T) {
	w := grammar.MustWCNF(grammar.Dyck1("a", "b"))
	g := graph.New(2)
	g.AddEdge(0, "a", 1) // no matching b: only trivial pairs exist
	sp, err := SinglePath(g, w)
	if err != nil {
		t.Fatal(err)
	}
	steps, err := sp.Path(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(steps) != 0 {
		t.Fatalf("eps pair should yield empty path, got %v", steps)
	}
}

func TestSinglePathErrors(t *testing.T) {
	sp, err := SinglePath(paperGraph(), cndGrammar())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sp.Path(0, 5); err == nil {
		t.Fatal("expected error for pair outside relation")
	}
	if _, err := sp.PathFor("NoSuch", 0, 1); err == nil {
		t.Fatal("expected error for unknown nonterminal")
	}
	if _, err := SinglePath(nil, nil); err == nil {
		t.Fatal("expected error for nil inputs")
	}
}

func TestSinglePathLongChain(t *testing.T) {
	// a^n b^n over a straight chain: a-edges 0..k, then b-edges back up.
	const k = 40
	g := graph.New(2*k + 1)
	for i := 0; i < k; i++ {
		g.AddEdge(i, "a", i+1)
	}
	for i := 0; i < k; i++ {
		g.AddEdge(k+i, "b", k+i+1)
	}
	w := grammar.MustWCNF(grammar.AnBn("a", "b"))
	sp, err := SinglePath(g, w)
	if err != nil {
		t.Fatal(err)
	}
	// The only a^n b^n path from 0 ends at 2k with n = k.
	steps, err := sp.Path(0, 2*k)
	if err != nil {
		t.Fatal(err)
	}
	if len(steps) != 2*k {
		t.Fatalf("path length = %d, want %d", len(steps), 2*k)
	}
	verifyPath(t, g, w, "S", 0, 2*k, steps)
}

// TestSinglePathTerminalMidSide: under a rule A -> B C whose C heads no
// binary rule, mid takes its candidates from column j of C's seeds. C
// matches a plain edge label, an inverse one (read through the graph's
// transpose), and a terminal that matches edges and vertex labels alike.
func TestSinglePathTerminalMidSide(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, last := range []string{"b", "b_r", "y"} {
		w := grammar.MustWCNF(grammar.MustNew("S", []grammar.Production{
			{LHS: "S", RHS: []grammar.Symbol{grammar.T("a"), grammar.T(last)}},
			{LHS: "S", RHS: []grammar.Symbol{grammar.T("a"), grammar.N("S"), grammar.T(last)}},
		}))
		pairs := 0
		for trial := 0; trial < 10; trial++ {
			n := 3 + rng.Intn(12)
			g := randomGraph(rng, n, 2+rng.Intn(3*n), []string{"a", "b", "y"})
			for v := 0; v < n; v += 1 + rng.Intn(3) {
				g.AddVertexLabel(v, "y")
			}
			sp, err := SinglePath(g, w)
			if err != nil {
				t.Fatal(err)
			}
			for _, pair := range sp.Pairs() {
				steps, err := sp.Path(pair[0], pair[1])
				if err != nil {
					t.Fatalf("%s, trial %d, pair %v: %v", last, trial, pair, err)
				}
				verifyPath(t, g, w, "S", pair[0], pair[1], steps)
				pairs++
			}
		}
		if pairs == 0 {
			t.Fatalf("%s: no pair to extract", last)
		}
	}
}
