package store

import (
	"testing"

	"mscfpq/internal/cfpq"
	"mscfpq/internal/dataset"
	"mscfpq/internal/grammar"
	"mscfpq/internal/matrix"
)

// createApart performs the mixed-rw wire write, CREATE (a:N)-[:subClassOf]->(b:N),
// (c:N)-[:type]->(a): three new vertices, linked and labeled among
// themselves, so the write grows the graph apart.
func createApart(tx *Tx) error {
	g := tx.Graph()
	a := g.NumVertices()
	g.AddEdge(a, "subClassOf", a+1)
	g.AddEdge(a+2, "type", a)
	for v := a; v < a+3; v++ {
		g.AddVertexLabel(v, "N")
	}
	return nil
}

// BenchmarkUpdateApart times what an apart write costs on core@1 and
// go-hierarchy@1: "update" is one CREATE-shaped Store.Update per op, on
// a fresh store every 50 writes so that what a write clones does not
// grow with the run, and "carry" one cfpq.NewIndexWarm of a G1 index
// that has processed sources 0-99 over such a write. Both decide whether the write grew the graph
// apart (graph.GrewApart); the carry also clones the index's relations.
func BenchmarkUpdateApart(b *testing.B) {
	w := grammar.MustWCNF(grammar.G1())
	for _, name := range []string{"core", "go-hierarchy"} {
		spec, err := dataset.ByName(name)
		if err != nil {
			b.Fatal(err)
		}
		g := dataset.Generate(dataset.Scaled(spec, 1))
		b.Run(name+"@1/update", func(b *testing.B) {
			var st *Store
			for i := 0; i < b.N; i++ {
				if i%50 == 0 {
					st = New(g)
				}
				if _, err := st.Update(createApart); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(name+"@1/carry", func(b *testing.B) {
			idx, err := cfpq.NewIndex(g, w)
			if err != nil {
				b.Fatal(err)
			}
			src := make([]int, 100)
			for v := range src {
				src[v] = v
			}
			if _, err := idx.MultiSourceSmart(matrix.NewVectorFromIndices(g.NumVertices(), src)); err != nil {
				b.Fatal(err)
			}
			snap, err := New(g).Update(createApart)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := cfpq.NewIndexWarm(snap.Graph(), w, idx); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
