// Package gen provides seeded random generators for the differential
// correctness harness (see TESTING.md): labeled graphs of several
// adversarial shapes, query grammars drawn from a pool plus a random
// WCNF-shaped generator, and source sets. Everything is a pure function
// of the *rand.Rand it is given, so any failure reproduces from its
// seed alone.
package gen

import (
	"math/rand"

	"mscfpq/internal/grammar"
	"mscfpq/internal/graph"
)

// DefaultLabels is the edge-label alphabet the generators draw from; it
// matches the terminals of the grammar pool.
var DefaultLabels = []string{"a", "b", "c"}

// VertexLabels are the vertex labels Graph sprinkles on every kind.
var VertexLabels = []string{"x", "y"}

// GraphKind names one generator shape; Graph dispatches on it and
// RandomGraph picks one at random.
type GraphKind int

const (
	// KindSparse is a uniform sparse random multigraph.
	KindSparse GraphKind = iota
	// KindCyclic overlays random directed cycles, the shape that forces
	// deep fixpoints in same-generation queries.
	KindCyclic
	// KindMultiLabel is a denser graph where every vertex pair may carry
	// several labels, stressing label decomposition.
	KindMultiLabel
	// KindTwoCycles is the classic CFPQ worst case (the paper's
	// an-bn stress shape): a cycle of a-edges and a cycle of b-edges
	// sharing one vertex, whose balanced walks force quadratically many
	// relation entries.
	KindTwoCycles
	// KindChain is a linear a-chain followed by a b-chain — the
	// grammar-shaped input on which a^n b^n matches exactly the balanced
	// windows.
	KindChain
	// KindSingleVertex is one vertex with random self loops.
	KindSingleVertex
	// KindEmpty has vertices but no edges at all.
	KindEmpty
	numKinds
)

func (k GraphKind) String() string {
	switch k {
	case KindSparse:
		return "sparse"
	case KindCyclic:
		return "cyclic"
	case KindMultiLabel:
		return "multilabel"
	case KindTwoCycles:
		return "twocycles"
	case KindChain:
		return "chain"
	case KindSingleVertex:
		return "singlevertex"
	case KindEmpty:
		return "empty"
	default:
		return "unknown"
	}
}

// Graph generates a graph of the given kind with about n vertices,
// labeled from labels. Vertex labels (used by grammars as zero-length
// steps) are sprinkled on a few vertices for every kind.
func Graph(rng *rand.Rand, kind GraphKind, n int, labels []string) *graph.Graph {
	if n < 1 {
		n = 1
	}
	var g *graph.Graph
	switch kind {
	case KindCyclic:
		g = graph.New(n)
		for c := 0; c < 1+rng.Intn(3); c++ {
			cycleLen := 2 + rng.Intn(n)
			l := labels[rng.Intn(len(labels))]
			first := rng.Intn(n)
			prev := first
			for i := 1; i < cycleLen; i++ {
				next := rng.Intn(n)
				g.AddEdge(prev, l, next)
				prev = next
			}
			g.AddEdge(prev, l, first)
		}
	case KindMultiLabel:
		g = graph.New(n)
		for e := 0; e < n*3; e++ {
			src, dst := rng.Intn(n), rng.Intn(n)
			for _, l := range labels {
				if rng.Intn(2) == 0 {
					g.AddEdge(src, l, dst)
				}
			}
		}
	case KindTwoCycles:
		p, q := 1+rng.Intn(4), 1+rng.Intn(4)
		g = graph.New(p + q + 1)
		// a-cycle 0 -> 1 -> ... -> p -> 0, b-cycle 0 -> p+1 -> ... -> 0.
		for i := 0; i < p; i++ {
			g.AddEdge(i, labels[0], i+1)
		}
		g.AddEdge(p, labels[0], 0)
		prev := 0
		for i := 0; i < q; i++ {
			g.AddEdge(prev, labels[1%len(labels)], p+1+i)
			prev = p + 1 + i
		}
		g.AddEdge(prev, labels[1%len(labels)], 0)
	case KindChain:
		g = graph.New(n)
		split := n / 2
		for i := 0; i+1 < n; i++ {
			l := labels[0]
			if i >= split {
				l = labels[1%len(labels)]
			}
			g.AddEdge(i, l, i+1)
		}
	case KindSingleVertex:
		g = graph.New(1)
		for _, l := range labels {
			if rng.Intn(2) == 0 {
				g.AddEdge(0, l, 0)
			}
		}
	case KindEmpty:
		g = graph.New(n)
	default: // KindSparse
		g = graph.New(n)
		for e := 0; e < n+rng.Intn(2*n); e++ {
			g.AddEdge(rng.Intn(n), labels[rng.Intn(len(labels))], rng.Intn(n))
		}
	}
	// Vertex labels on a few vertices, mirroring the paper's Figure 1
	// usage of vertex-labeled terminals.
	nv := g.NumVertices()
	for _, vl := range VertexLabels {
		for v := 0; v < nv; v++ {
			if rng.Intn(5) == 0 {
				g.AddVertexLabel(v, vl)
			}
		}
	}
	return g
}

// RandomGraph picks a kind at random and generates it. Degenerate kinds
// (single vertex, empty) are kept in rotation deliberately — they are
// the edge cases matrix code tends to get wrong.
func RandomGraph(rng *rand.Rand, n int, labels []string) *graph.Graph {
	return Graph(rng, GraphKind(rng.Intn(int(numKinds))), n, labels)
}

// Sources draws a random source set over n vertices: usually a handful
// of vertices, occasionally empty or the full universe, and with
// duplicates kept so callers exercise deduplication.
func Sources(rng *rand.Rand, n int) []int {
	if n == 0 {
		return nil
	}
	switch rng.Intn(8) {
	case 0:
		return nil // empty source set
	case 1:
		out := make([]int, n)
		for i := range out {
			out[i] = i
		}
		return out // every vertex
	default:
		out := make([]int, 1+rng.Intn(4))
		for i := range out {
			out[i] = rng.Intn(n)
		}
		return out
	}
}

// grammarPool holds hand-written query grammars that exercise the
// features the random generator cannot reach by chance: inverse labels,
// vertex-label terminals, nullable start symbols, and the paper's own
// query shapes.
var grammarPool = []func() *grammar.Grammar{
	func() *grammar.Grammar { return grammar.AnBn("a", "b") },
	func() *grammar.Grammar { return grammar.Dyck1("a", "b") },
	func() *grammar.Grammar { return grammar.SameGen("a") },
	func() *grammar.Grammar { return grammar.SameGen("a", "b") },
	func() *grammar.Grammar { return grammar.MustParse("S -> a S | eps") },
	func() *grammar.Grammar { return grammar.MustParse("S -> a S b | eps") },
	func() *grammar.Grammar { return grammar.MustParse("S -> a_r S a | b") },
	func() *grammar.Grammar { return grammar.MustParse("S -> c S c_r | c c_r") },
	func() *grammar.Grammar { return grammar.MustParse("S -> a S b | a x b") },
	func() *grammar.Grammar { return grammar.MustParse("S -> A B\nA -> a A | a\nB -> b B | y | eps") },
	func() *grammar.Grammar { return grammar.MustParse("S -> A S A | b\nA -> a") },
}

// RandomGrammar returns a random query grammar: half the time a pool
// grammar, otherwise a freshly generated one over the given labels. The
// generated language may be empty or trivial — for differential testing
// that is still a meaningful instance.
func RandomGrammar(rng *rand.Rand, labels []string) *grammar.Grammar {
	if rng.Intn(2) == 0 {
		return grammarPool[rng.Intn(len(grammarPool))]()
	}
	return generateGrammar(rng, labels)
}

// generateGrammar builds a random grammar over nonterminals S, A, B.
// Each nonterminal receives one to three alternatives drawn from the
// WCNF-adjacent shapes the engines must handle: a terminal, a pair of
// nonterminals, mixed terminal/nonterminal pairs, a triple, or eps.
func generateGrammar(rng *rand.Rand, labels []string) *grammar.Grammar {
	nts := []string{"S", "A", "B"}
	// A terminal is a plain label or, a quarter of the time, its inverse
	// "l_r" so generated grammars traverse edges backwards too.
	termName := func() string {
		l := labels[rng.Intn(len(labels))]
		if rng.Intn(4) == 0 {
			return l + "_r"
		}
		return l
	}
	ntName := func() string { return nts[rng.Intn(len(nts))] }

	var prods []grammar.Production
	for _, lhs := range nts {
		alts := 1 + rng.Intn(3)
		for k := 0; k < alts; k++ {
			var rhs []grammar.Symbol
			switch rng.Intn(6) {
			case 0:
				rhs = []grammar.Symbol{grammar.T(termName())}
			case 1:
				rhs = []grammar.Symbol{grammar.N(ntName()), grammar.N(ntName())}
			case 2:
				rhs = []grammar.Symbol{grammar.T(termName()), grammar.N(ntName())}
			case 3:
				rhs = []grammar.Symbol{grammar.N(ntName()), grammar.T(termName())}
			case 4:
				rhs = []grammar.Symbol{grammar.T(termName()), grammar.N(ntName()), grammar.T(termName())}
			case 5:
				rhs = nil // eps
			}
			prods = append(prods, grammar.Production{LHS: lhs, RHS: rhs})
		}
	}
	return grammar.MustNew("S", prods)
}

// RandomRegex builds a random path regular expression over the labels,
// in the syntax of internal/rpq: juxtaposition, |, *, +, ?, grouping,
// and "_r" inverse labels. depth bounds the nesting.
func RandomRegex(rng *rand.Rand, labels []string, depth int) string {
	if depth <= 0 || rng.Intn(3) == 0 {
		l := labels[rng.Intn(len(labels))]
		if rng.Intn(4) == 0 {
			l += "_r"
		}
		return l
	}
	switch rng.Intn(6) {
	case 0:
		return RandomRegex(rng, labels, depth-1) + " " + RandomRegex(rng, labels, depth-1)
	case 1:
		return "(" + RandomRegex(rng, labels, depth-1) + " | " + RandomRegex(rng, labels, depth-1) + ")"
	case 2:
		return "(" + RandomRegex(rng, labels, depth-1) + ")*"
	case 3:
		return "(" + RandomRegex(rng, labels, depth-1) + ")+"
	case 4:
		return "(" + RandomRegex(rng, labels, depth-1) + ")?"
	default:
		return "(" + RandomRegex(rng, labels, depth-1) + ")"
	}
}

// Instance bundles one differential-test case: a graph, a normalized
// grammar, and a source set, all derived deterministically from a seed.
type Instance struct {
	Seed    int64
	Kind    GraphKind
	G       *graph.Graph
	Grammar *grammar.Grammar
	W       *grammar.WCNF
	Sources []int
}

// NewInstance derives a full differential-test instance from a seed.
// maxN bounds the graph size.
func NewInstance(seed int64, maxN int) Instance {
	rng := rand.New(rand.NewSource(seed))
	kind := GraphKind(rng.Intn(int(numKinds)))
	n := 2 + rng.Intn(maxN-1)
	g := Graph(rng, kind, n, DefaultLabels)
	gr := RandomGrammar(rng, DefaultLabels)
	w := grammar.MustWCNF(gr)
	return Instance{
		Seed:    seed,
		Kind:    kind,
		G:       g,
		Grammar: gr,
		W:       w,
		Sources: Sources(rng, g.NumVertices()),
	}
}
