package graph

import (
	"testing"
)

// edgeSet flattens a graph's labeled edges for comparison.
func edgeSet(g *Graph) map[[2]int]string {
	out := map[[2]int]string{}
	g.Edges(func(src int, label string, dst int) bool {
		out[[2]int{src, dst}] = out[[2]int{src, dst}] + label + ";"
		return true
	})
	return out
}

func sameEdges(a, b map[[2]int]string) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

// TestGraphCowCloneIsolation: mutating a COW clone (the next version)
// must leave the original (the pinned snapshot) untouched, including
// when the clone grows the vertex set, and vice versa.
func TestGraphCowCloneIsolation(t *testing.T) {
	g := New(0)
	g.AddEdge(0, "a", 1)
	g.AddEdge(1, "a", 2)
	g.AddEdge(2, "b", 0)
	g.AddVertexLabel(0, "Person")

	want := edgeSet(g)
	c := g.CowClone()
	if !sameEdges(edgeSet(c), want) {
		t.Fatalf("fresh clone differs from original")
	}

	// Mutate the clone: existing label, new label, growth, vertex label.
	c.AddEdge(0, "a", 2)
	c.AddEdge(2, "c", 1)
	c.AddEdge(5, "a", 0) // grows to 6 vertices
	c.AddVertexLabel(3, "Person")

	if !sameEdges(edgeSet(g), want) {
		t.Fatalf("clone mutation leaked into original:\n got %v\nwant %v", edgeSet(g), want)
	}
	if g.NumVertices() != 3 {
		t.Fatalf("original grew to %d vertices", g.NumVertices())
	}
	if g.HasVertexLabel(3, "Person") {
		t.Fatalf("clone vertex label leaked into original")
	}
	if c.NumVertices() != 6 || !c.HasEdge(5, "a", 0) || !c.HasEdge(0, "a", 1) {
		t.Fatalf("clone lost its own or inherited edges")
	}

	// And the other direction.
	cwant := edgeSet(c)
	g.AddEdge(1, "b", 1)
	if !sameEdges(edgeSet(c), cwant) {
		t.Fatalf("original mutation leaked into clone")
	}

	// Inverse-label reads on the snapshot must reflect only its edges.
	if got := g.EdgeMatrix("a_r").NVals(); got != 2 {
		t.Fatalf("snapshot transpose has %d entries, want 2", got)
	}
	if got := c.EdgeMatrix("a_r").NVals(); got != 4 {
		t.Fatalf("clone transpose has %d entries, want 4", got)
	}
}

// TestGraphCowCloneChain walks several versions, asserting each
// retained snapshot keeps its exact edge count (the no-torn-read
// invariant the store's stress suite relies on).
func TestGraphCowCloneChain(t *testing.T) {
	cur := New(2)
	cur.AddEdge(0, "x", 1)
	type version struct {
		g     *Graph
		edges map[[2]int]string
		n     int
	}
	var history []version
	for v := 0; v < 12; v++ {
		history = append(history, version{cur, edgeSet(cur), cur.NumVertices()})
		next := cur.CowClone()
		next.AddEdge(v, "x", v+1)
		next.AddEdge(v+1, "y", 0)
		cur = next
	}
	for i, h := range history {
		if !sameEdges(edgeSet(h.g), h.edges) {
			t.Fatalf("version %d edges changed", i)
		}
		if h.g.NumVertices() != h.n {
			t.Fatalf("version %d vertex count changed", i)
		}
	}
}

// TestGraphCloneFrozenIsolation: CloneFrozen yields the mutable next
// version of a published, never-again-mutated snapshot. The clone may
// be mutated and grown freely; the frozen original must stay
// bit-for-bit identical (internal/store publishes snapshots on this
// guarantee — see the `// immutable after publish` annotation there).
func TestGraphCloneFrozenIsolation(t *testing.T) {
	g := New(0)
	g.AddEdge(0, "a", 1)
	g.AddEdge(1, "a", 2)
	g.AddEdge(2, "b", 0)
	g.AddVertexLabel(0, "Person")
	want := edgeSet(g)

	c := g.CloneFrozen()
	if !sameEdges(edgeSet(c), want) {
		t.Fatalf("fresh frozen clone differs from original")
	}

	c.AddEdge(0, "a", 2)
	c.AddEdge(2, "c", 1)
	c.AddEdge(5, "a", 0) // grows to 6 vertices
	c.AddVertexLabel(3, "Person")

	if !sameEdges(edgeSet(g), want) {
		t.Fatalf("frozen-clone mutation leaked into original:\n got %v\nwant %v", edgeSet(g), want)
	}
	if g.NumVertices() != 3 {
		t.Fatalf("original grew to %d vertices", g.NumVertices())
	}
	if g.HasVertexLabel(3, "Person") {
		t.Fatalf("clone vertex label leaked into frozen original")
	}
	if c.NumVertices() != 6 || !c.HasEdge(5, "a", 0) || !c.HasEdge(0, "a", 1) {
		t.Fatalf("clone lost its own mutations")
	}
}

// TestGrewApart: a growth is apart exactly when it adds vertices and
// only edges and vertex labels among them. Each case grows a frozen
// clone of a graph of four vertices, 0-a->1-a->2 and 3 labeled P, with
// vertex 0 past the list/bitmap crossover.
func TestGrewApart(t *testing.T) {
	base := New(0)
	base.AddEdge(0, "a", 1)
	base.AddEdge(1, "a", 2)
	base.AddVertexLabel(3, "P")
	for j := 4; j < 80; j++ {
		base.AddEdge(0, "b", j) // past the crossover: row 0 of b is a bitmap
	}
	n := base.NumVertices()
	cases := []struct {
		name  string
		grow  func(g *Graph)
		apart bool
	}{
		{"props only", func(g *Graph) {}, true},
		{"new to new", func(g *Graph) { g.AddEdge(n, "a", n+1) }, true},
		{"new label matrix among new", func(g *Graph) { g.AddEdge(n, "c", n+1) }, true},
		{"vertex label on new", func(g *Graph) { g.AddVertexLabel(n+2, "P"); g.AddVertexLabel(n+2, "Q") }, true},
		{"existing edge again", func(g *Graph) { g.AddEdge(0, "a", 1); g.AddEdge(0, "b", 40) }, true},
		{"existing vertex label again", func(g *Graph) { g.AddVertexLabel(3, "P") }, true},
		{"old to new", func(g *Graph) { g.AddEdge(2, "a", n) }, false},
		{"new to old", func(g *Graph) { g.AddEdge(n, "a", 0) }, false},
		{"old to old", func(g *Graph) { g.AddEdge(2, "a", 3) }, false},
		{"old to old in a bitmap row", func(g *Graph) { g.AddEdge(0, "b", 2) }, false},
		{"new label matrix on old", func(g *Graph) { g.AddEdge(3, "c", n) }, false},
		{"vertex label on old", func(g *Graph) { g.AddVertexLabel(1, "P") }, false},
		{"new vertex label on old", func(g *Graph) { g.AddVertexLabel(n+1, "Q"); g.AddVertexLabel(2, "Q") }, false},
	}
	for _, c := range cases {
		g := base.CloneFrozen()
		c.grow(g)
		if got := GrewApart(base, g); got != c.apart {
			t.Errorf("%s: GrewApart = %v, want %v", c.name, got, c.apart)
		}
		// Against a copy built edge by edge no row is shared, so every
		// row is compared by content.
		deep := New(n)
		base.Edges(func(src int, label string, dst int) bool {
			deep.AddEdge(src, label, dst)
			return true
		})
		for _, l := range base.VertexLabels() {
			for _, v := range base.VertexSet(l).Ints() {
				deep.AddVertexLabel(v, l)
			}
		}
		if got := GrewApart(deep, g); got != c.apart {
			t.Errorf("%s, rows compared by content: GrewApart = %v, want %v", c.name, got, c.apart)
		}
	}

	// Across generations: three apart growths stay apart from the base;
	// once one touches, every later generation is not apart from it.
	gens := []*Graph{base}
	for k := 0; k < 5; k++ {
		g := gens[k].CloneFrozen()
		v := g.NumVertices()
		g.AddEdge(v, "a", v+1)
		g.AddVertexLabel(v+1, "P")
		if k == 3 {
			g.AddEdge(1, "b", v)
		}
		gens = append(gens, g)
	}
	for k, g := range gens[1:] {
		if got, want := GrewApart(base, g), k < 3; got != want {
			t.Errorf("generation %d: GrewApart(base) = %v, want %v", k+1, got, want)
		}
		if got, want := GrewApart(gens[k], g), k != 3; got != want {
			t.Errorf("generation %d: GrewApart(previous) = %v, want %v", k+1, got, want)
		}
	}
}

// TestGrewApartThroughCowClone: a CowClone starts a generation as a
// CloneFrozen does, so a lineage of either answers alike: an apart
// growth stays apart from every ancestor, and a touching one from none.
func TestGrewApartThroughCowClone(t *testing.T) {
	for name, clone := range map[string]func(*Graph) *Graph{
		"CowClone":    (*Graph).CowClone,
		"CloneFrozen": (*Graph).CloneFrozen,
	} {
		g := New(0)
		g.AddEdge(0, "a", 1)
		gens := []*Graph{g}
		for k, touches := range []bool{false, false, true, false} {
			g = clone(g)
			v := g.NumVertices()
			g.AddEdge(v, "a", v+1)
			if touches {
				g.AddEdge(0, "a", 0)
			}
			for i, prior := range gens {
				if got, want := GrewApart(prior, g), i > 2 || k < 2; got != want {
					t.Errorf("%s: GrewApart(generation %d, generation %d) = %v, want %v", name, i, k+1, got, want)
				}
			}
			gens = append(gens, g)
		}
	}
}
