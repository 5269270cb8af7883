package oracle

import (
	"reflect"
	"testing"

	"mscfpq/internal/grammar"
	"mscfpq/internal/graph"
	"mscfpq/internal/rpq"
)

// figure1 builds the paper's Figure 1 example graph (the same graph as
// testdata/example_graph.txt, duplicated here so the oracle's own tests
// depend on nothing but hand-checked literals).
func figure1() *graph.Graph {
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

// The paper's running example (Section 2.3): S -> c S d | c y d over
// Figure 1. Hand derivation: the only c edge into a y vertex is 3-c->2,
// followed by 2-d->4, giving (3, 4); wrapping once more with 4-c->3 and
// 4-d->5 gives (4, 5); no c edge reaches 4, so the relation closes.
func TestCFPQRunningExample(t *testing.T) {
	g := figure1()
	w := grammar.MustWCNF(grammar.MustParse("S -> c S d | c y d"))
	r := CFPQ(g, w)
	want := [][2]int{{3, 4}, {4, 5}}
	if got := r.StartPairs(); !reflect.DeepEqual(got, want) {
		t.Fatalf("StartPairs = %v, want %v", got, want)
	}
	if got := r.StartPairsFrom([]int{4, 4, -1, 99}); !reflect.DeepEqual(got, [][2]int{{4, 5}}) {
		t.Fatalf("StartPairsFrom(4) = %v, want [[4 5]]", got)
	}
	if got := r.StartPairsFrom(nil); len(got) != 0 {
		t.Fatalf("StartPairsFrom(nil) = %v, want empty", got)
	}
}

// a^n b^n over a plain chain: exactly the balanced windows.
func TestCFPQAnBnChain(t *testing.T) {
	g := graph.New(5)
	g.AddEdge(0, "a", 1)
	g.AddEdge(1, "a", 2)
	g.AddEdge(2, "b", 3)
	g.AddEdge(3, "b", 4)
	w := grammar.MustWCNF(grammar.AnBn("a", "b"))
	want := [][2]int{{0, 4}, {1, 3}}
	if got := CFPQ(g, w).StartPairs(); !reflect.DeepEqual(got, want) {
		t.Fatalf("StartPairs = %v, want %v", got, want)
	}
}

// Inverse labels: S -> a_r over 0-a->1 relates 1 to 0.
func TestCFPQInverseLabel(t *testing.T) {
	g := graph.New(2)
	g.AddEdge(0, "a", 1)
	w := grammar.MustWCNF(grammar.MustParse("S -> a_r"))
	want := [][2]int{{1, 0}}
	if got := CFPQ(g, w).StartPairs(); !reflect.DeepEqual(got, want) {
		t.Fatalf("StartPairs = %v, want %v", got, want)
	}
}

// A nullable start symbol relates every vertex to itself.
func TestCFPQNullable(t *testing.T) {
	g := graph.New(3)
	g.AddEdge(0, "a", 1)
	w := grammar.MustWCNF(grammar.MustParse("S -> a S | eps"))
	want := [][2]int{{0, 0}, {0, 1}, {1, 1}, {2, 2}}
	if got := CFPQ(g, w).StartPairs(); !reflect.DeepEqual(got, want) {
		t.Fatalf("StartPairs = %v, want %v", got, want)
	}
}

func TestRPQHandChecked(t *testing.T) {
	g := figure1()
	cases := []struct {
		regex   string
		sources []int
		want    [][2]int
	}{
		// 0-a->1-b->{2,5}.
		{"a b", []int{0}, [][2]int{{0, 2}, {0, 5}}},
		// d cycles: from 2 the d-reachable set is {4, 5}.
		{"d+", []int{2}, [][2]int{{2, 4}, {2, 5}}},
		// Vertex label x matches as a zero-length step.
		{"x", []int{0, 1}, [][2]int{{0, 0}}},
		// Inverse label: a_r from 2 walks a edges backwards.
		{"a_r+", []int{2}, [][2]int{{2, 0}, {2, 1}}},
		// Optional step keeps the source itself.
		{"a?", []int{0}, [][2]int{{0, 0}, {0, 1}}},
		// Duplicate and out-of-range sources are ignored.
		{"a", []int{1, 1, -3, 42}, [][2]int{{1, 2}}},
	}
	for _, c := range cases {
		re, err := rpq.ParseRegex(c.regex)
		if err != nil {
			t.Fatalf("parse %q: %v", c.regex, err)
		}
		if got := RPQ(g, re, c.sources); !reflect.DeepEqual(got, c.want) {
			t.Errorf("RPQ(%q, %v) = %v, want %v", c.regex, c.sources, got, c.want)
		}
	}
}
