package graph

import (
	"testing"
	"testing/quick"

	"mscfpq/internal/matrix"
)

// Property (testing/quick): HasEdge agrees with the Boolean
// decomposition for arbitrary edge batches, and the inverse matrix is
// always the exact transpose.
func TestEdgeDecompositionQuick(t *testing.T) {
	type edge struct {
		Src, Dst uint8
		Label    bool // two labels: p / q
	}
	f := func(edges []edge) bool {
		g := New(256)
		for _, e := range edges {
			label := "p"
			if e.Label {
				label = "q"
			}
			g.AddEdge(int(e.Src), label, int(e.Dst))
		}
		for _, e := range edges {
			label := "p"
			if e.Label {
				label = "q"
			}
			if !g.HasEdge(int(e.Src), label, int(e.Dst)) {
				return false
			}
			if !g.EdgeMatrix(label).Get(int(e.Src), int(e.Dst)) {
				return false
			}
		}
		for _, label := range []string{"p", "q"} {
			if !g.EdgeMatrix(label + "_r").Equal(matrix.Transpose(g.EdgeMatrix(label))) {
				return false
			}
		}
		// Total entries across labels equals NumEdges.
		total := g.EdgeCount("p") + g.EdgeCount("q")
		return total == g.NumEdges()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
