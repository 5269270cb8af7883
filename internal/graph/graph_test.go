package graph

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"mscfpq/internal/matrix"
)

// paperGraph builds the example graph D of Figure 1: six vertices,
// edges a,b,c,d, vertex labels x,y. Vertices are 0-based here (the
// paper numbers them 1-6).
func paperGraph() *Graph {
	g := New(6)
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

func TestAddAndQueryEdges(t *testing.T) {
	g := paperGraph()
	if g.NumVertices() != 6 {
		t.Fatalf("vertices = %d", g.NumVertices())
	}
	if g.NumEdges() != 9 {
		t.Fatalf("edges = %d", g.NumEdges())
	}
	if !g.HasEdge(1, "b", 5) || g.HasEdge(5, "b", 1) {
		t.Fatal("HasEdge direction wrong")
	}
	if !g.HasEdge(5, "b_r", 1) {
		t.Fatal("inverse HasEdge failed")
	}
	if g.HasEdge(0, "zzz", 1) || g.HasEdge(-1, "a", 0) || g.HasEdge(0, "a", 99) {
		t.Fatal("nonexistent edge reported")
	}
	g.AddEdge(1, "b", 5) // duplicate must not double count
	if g.NumEdges() != 9 {
		t.Fatalf("duplicate edge changed count to %d", g.NumEdges())
	}
	if got := g.EdgeLabels(); !reflect.DeepEqual(got, []string{"a", "b", "c", "d"}) {
		t.Fatalf("labels = %v", got)
	}
	if g.EdgeCount("d") != 3 || g.EdgeCount("nope") != 0 {
		t.Fatal("EdgeCount wrong")
	}
}

func TestVertexLabels(t *testing.T) {
	g := paperGraph()
	if !g.HasVertexLabel(2, "x") || !g.HasVertexLabel(2, "y") || g.HasVertexLabel(1, "x") {
		t.Fatal("vertex labels wrong")
	}
	if got := g.VertexLabels(); !reflect.DeepEqual(got, []string{"x", "y"}) {
		t.Fatalf("vertex labels = %v", got)
	}
	if vs := g.VertexSet("y"); !reflect.DeepEqual(vs.Ints(), []int{2, 5}) {
		t.Fatalf("vertex set wrong: %v", vs)
	}
	if g.VertexSet("none").NVals() != 0 {
		t.Fatal("unknown vertex label must be empty")
	}
}

func TestEdgeMatrixAndInverse(t *testing.T) {
	g := paperGraph()
	ea := g.EdgeMatrix("a")
	if ea.NVals() != 2 || !ea.Get(0, 1) || !ea.Get(1, 2) {
		t.Fatalf("E^a wrong:\n%v", ea)
	}
	inv := g.EdgeMatrix("a_r")
	if !inv.Equal(matrix.Transpose(ea)) {
		t.Fatal("inverse matrix is not the transpose")
	}
	// Cache must return identical contents on repeat and invalidate on edit.
	if !g.EdgeMatrix("a_r").Equal(inv) {
		t.Fatal("inverse cache inconsistent")
	}
	g.AddEdge(3, "a", 0)
	if !g.EdgeMatrix("a_r").Get(0, 3) {
		t.Fatal("inverse cache not invalidated by AddEdge")
	}
	if g.EdgeMatrix("unknown").NVals() != 0 {
		t.Fatal("unknown label must yield empty matrix")
	}
}

func TestGrowOnDemand(t *testing.T) {
	g := New(2)
	g.AddEdge(0, "a", 7)
	if g.NumVertices() != 8 {
		t.Fatalf("vertices = %d, want 8", g.NumVertices())
	}
	g.AddVertexLabel(0, "x")
	g.AddVertexLabel(11, "x")
	if g.NumVertices() != 12 || !g.HasVertexLabel(0, "x") || !g.HasVertexLabel(11, "x") {
		t.Fatal("grow lost vertex labels")
	}
	if !g.HasEdge(0, "a", 7) {
		t.Fatal("grow lost edges")
	}
	if g.EdgeMatrix("a").NRows() != 12 {
		t.Fatal("edge matrix not resized")
	}
}

func TestRejectsStoredInverseLabels(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for stored inverse label")
		}
	}()
	New(2).AddEdge(0, "a_r", 1)
}

func TestEdgesIteration(t *testing.T) {
	g := paperGraph()
	var triples []string
	g.Edges(func(src int, label string, dst int) bool {
		triples = append(triples, strings.Join([]string{label}, ""))
		return true
	})
	if len(triples) != 9 {
		t.Fatalf("visited %d edges, want 9", len(triples))
	}
	// Early stop.
	n := 0
	g.Edges(func(int, string, int) bool { n++; return n < 3 })
	if n != 3 {
		t.Fatalf("early stop visited %d", n)
	}
}

func TestStats(t *testing.T) {
	g := paperGraph()
	s := g.Stats()
	if s.Vertices != 6 || s.Edges != 9 {
		t.Fatalf("stats = %+v", s)
	}
	if s.ByLabel["d"] != 3 || s.ByLabel["a"] != 2 {
		t.Fatalf("per-label stats = %v", s.ByLabel)
	}
}

func TestIORoundTrip(t *testing.T) {
	g := paperGraph()
	var buf bytes.Buffer
	if err := Write(&buf, g); err != nil {
		t.Fatal(err)
	}
	back, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumVertices() != g.NumVertices() || back.NumEdges() != g.NumEdges() {
		t.Fatalf("round trip shape: %d/%d vs %d/%d",
			back.NumVertices(), back.NumEdges(), g.NumVertices(), g.NumEdges())
	}
	g.Edges(func(src int, label string, dst int) bool {
		if !back.HasEdge(src, label, dst) {
			t.Fatalf("lost edge %d -%s-> %d", src, label, dst)
		}
		return true
	})
	for _, l := range g.VertexLabels() {
		if !back.VertexSet(l).Equal(g.VertexSet(l)) {
			t.Fatalf("lost vertex labels %q", l)
		}
	}
}

func TestIORoundTripRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := New(30)
	labels := []string{"p", "q", "r"}
	for i := 0; i < 150; i++ {
		g.AddEdge(rng.Intn(30), labels[rng.Intn(3)], rng.Intn(30))
	}
	var buf bytes.Buffer
	if err := Write(&buf, g); err != nil {
		t.Fatal(err)
	}
	back, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range labels {
		if !back.EdgeMatrix(l).Equal(g.EdgeMatrix(l)) {
			t.Fatalf("label %q matrices differ", l)
		}
	}
}

func TestReadErrors(t *testing.T) {
	cases := []string{
		"0 a",        // two fields
		"x a 1",      // bad src
		"0 a y",      // bad dst
		"vertex x l", // bad vertex id
		"order -5",   // bad order
		"too many fields here now",
	}
	for _, src := range cases {
		if _, err := Read(strings.NewReader(src)); err == nil {
			t.Errorf("Read(%q): expected error", src)
		}
	}
}

func TestReadOrderAndComments(t *testing.T) {
	g, err := Read(strings.NewReader("# hello\norder 10\n0 a 1 # trailing\n\nvertex 2 x\n"))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 10 || !g.HasEdge(0, "a", 1) || !g.HasVertexLabel(2, "x") {
		t.Fatalf("parsed graph wrong: n=%d", g.NumVertices())
	}
}

func TestLoadFileMissing(t *testing.T) {
	if _, err := LoadFile("/nonexistent/graph.txt"); err == nil {
		t.Fatal("expected error")
	}
}

func TestSaveLoadFile(t *testing.T) {
	path := t.TempDir() + "/g.txt"
	g := paperGraph()
	if err := SaveFile(path, g); err != nil {
		t.Fatal(err)
	}
	back, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumEdges() != g.NumEdges() {
		t.Fatal("file round trip lost edges")
	}
}

// TestReadBoundsRowSlots: Read refuses, with the line's number, an
// order, a vertex id or a new edge label that takes the graph past
// MaxRowSlots, and admits an order right at the bound (without edges it
// allocates no row).
func TestReadBoundsRowSlots(t *testing.T) {
	for _, in := range []string{
		"000000500000000 0 0",
		"0 a 1\n9223372036854775807 a 0\n",
		fmt.Sprintf("order %d\n", MaxRowSlots+1),
		fmt.Sprintf("vertex %d x\n", MaxRowSlots),
		fmt.Sprintf("order %d\n0 a 1\n0 b 1\n", MaxRowSlots/2+1), // the new label b doubles the slots
	} {
		_, err := Read(strings.NewReader(in))
		if err == nil || !strings.Contains(err.Error(), "row slots") || !strings.Contains(err.Error(), "line ") {
			t.Errorf("Read(%.40q) = %v, want a row-slot error naming the line", in, err)
		}
	}
	g, err := Read(strings.NewReader(fmt.Sprintf("order %d\n", MaxRowSlots)))
	if err != nil || g.NumVertices() != MaxRowSlots {
		t.Fatalf("a graph at the bound: %v", err)
	}
}
