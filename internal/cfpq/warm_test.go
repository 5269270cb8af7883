package cfpq

import (
	"math/rand"
	"slices"
	"testing"

	"mscfpq/internal/graph"
	"mscfpq/internal/matrix"
)

// TestWarmIndexMatchesFreshProperty: an index warm-started from a prior
// version's relations answers every query on the grown graph exactly as
// a fresh index does — the soundness contract that lets gdb carry a
// PathCtx across versions (monotone edge addition keeps old facts
// derivable; processed-source claims are reset). The last trials grow a
// graph of under 64 vertices past 120, so the prior's relations are one
// word wide and the warm index's bitmap rows are shorter than their word
// count when its products read them and fold into them.
func TestWarmIndexMatchesFreshProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	labels := []string{"a", "b", "subClassOf"}
	for name, w := range testGrammars() {
		w := w
		t.Run(name, func(t *testing.T) {
			for trial := 0; trial < 11; trial++ {
				wide := trial >= 8
				n, lift, grow := 5+rng.Intn(12), 1, 3
				if wide {
					n, lift, grow = 50+rng.Intn(14), 70, 70
				}
				g := randomGraph(rng, n, 2+rng.Intn(3*n), labels)
				prior, err := NewIndex(g, w)
				if err != nil {
					t.Fatal(err)
				}
				// Populate the prior index with a few queries.
				for q := 0; q < 3; q++ {
					src := matrix.NewVectorFromIndices(n, []int{rng.Intn(n), rng.Intn(n)})
					if _, err := prior.MultiSourceSmart(src); err != nil {
						t.Fatal(err)
					}
				}
				// Grow a successor version: additions only, including new
				// vertices, most of them touching old ones, so the warm
				// index carries no processed source.
				g2 := g.CowClone()
				n2 := n + lift + rng.Intn(grow)
				for e := 0; e < 1+rng.Intn(6); e++ {
					g2.AddEdge(rng.Intn(n2), labels[rng.Intn(len(labels))], rng.Intn(n2))
				}
				if wide {
					g2.AddEdge(rng.Intn(n), labels[rng.Intn(len(labels))], n2-1)
				}
				n2 = g2.NumVertices()

				warm, err := NewIndexWarm(g2, w, prior)
				if err != nil {
					t.Fatal(err)
				}
				fresh, err := NewIndex(g2, w)
				if err != nil {
					t.Fatal(err)
				}
				for q := 0; q < 4; q++ {
					src := matrix.NewVectorFromIndices(n2, []int{rng.Intn(n2), rng.Intn(n2)})
					wa, err := warm.MultiSourceSmart(src)
					if err != nil {
						t.Fatal(err)
					}
					fa, err := fresh.MultiSourceSmart(src)
					if err != nil {
						t.Fatal(err)
					}
					if !wa.Answer().Equal(fa.Answer()) {
						t.Fatalf("trial %d query %d src=%v: warm differs from fresh\nwarm:  %v\nfresh: %v",
							trial, q, src.Ints(), wa.Answer().Pairs(), fa.Answer().Pairs())
					}
				}
			}
		})
	}
}

func TestWarmIndexNilPriorAndErrors(t *testing.T) {
	g := paperGraph()
	w := cndGrammar()
	idx, err := NewIndexWarm(g, w, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := idx.MultiSourceSmart(matrix.NewVectorFromIndices(6, []int{3})); err != nil {
		t.Fatal(err)
	}

	prior, err := NewIndex(g, w)
	if err != nil {
		t.Fatal(err)
	}
	// A different grammar object must be rejected even if structurally
	// equal: the seeded relation ids would silently mean other symbols.
	w2 := cndGrammar()
	if _, err := NewIndexWarm(g, w2, prior); err == nil {
		t.Fatal("expected grammar mismatch error")
	}
	// Warm-starting onto a SMALLER graph is not a supergraph.
	small := randomGraph(rand.New(rand.NewSource(1)), 3, 3, []string{"a", "b"})
	if _, err := NewIndexWarm(small, w, prior); err == nil {
		t.Fatal("expected shrunk-graph error")
	}
}

// TestWarmIndexMaintenance: carrying an index over keeps its processed
// sources across a write that links only new vertices, whose carried
// rows are then read without a solve; a write that links an old vertex
// to a new one, here one that gives a processed row a new entry, leaves
// no processed source, and the carried index answers as a fresh one.
func TestWarmIndexMaintenance(t *testing.T) {
	w := anbnWCNF()
	g := graph.New(0)
	g.AddEdge(0, "a", 1)
	g.AddEdge(1, "a", 2)
	g.AddEdge(2, "b", 3)
	g.AddEdge(3, "b", 4)
	g.AddEdge(5, "a", 6)
	g.AddEdge(6, "b", 7)
	prior, err := NewIndex(g, w)
	if err != nil {
		t.Fatal(err)
	}
	src := matrix.NewVectorFromIndices(8, []int{0, 1, 5})
	pa, err := prior.MultiSourceSmart(src)
	if err != nil {
		t.Fatal(err)
	}
	s := w.Start

	// New vertices linked among themselves: the processed sources carry.
	g1 := g.CowClone()
	g1.AddEdge(8, "a", 9)
	g1.AddEdge(9, "b", 10)
	warm1, err := NewIndexWarm(g1, w, prior)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := warm1.ProcessedSources(s), matrix.NewVectorFromIndices(11, prior.ProcessedSources(s).Ints()); !got.Equal(want) {
		t.Fatalf("processed sources %v, want the prior's %v", got.Ints(), want.Ints())
	}
	x, err := warm1.Extend(w)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := x.Rows(s, matrix.NewVectorFromIndices(11, src.Ints()))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := rows.Pairs(), pa.Answer().Pairs(); !slices.Equal(got, want) {
		t.Fatalf("carried rows %v, prior %v", got, want)
	}
	if q := warm1.Queries(); q != 0 {
		t.Fatalf("reading carried rows ran %d solves", q)
	}

	// 2-b->8 links old to new and gives 1 the new row entry (1, 8).
	g2 := g1.CowClone()
	g2.AddEdge(2, "b", 8)
	warm2, err := NewIndexWarm(g2, w, warm1)
	if err != nil {
		t.Fatal(err)
	}
	for a := range w.NumNonterms() {
		if done := warm2.ProcessedSources(a); !done.Empty() {
			t.Fatalf("nonterminal %d: %v processed across a write that links old to new", a, done.Ints())
		}
	}
	fresh, err := NewIndex(g2, w)
	if err != nil {
		t.Fatal(err)
	}
	all := matrix.NewVectorFromIndices(11, []int{0, 1, 5})
	fa, err := fresh.MultiSourceSmart(all)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Contains(fa.Answer().Pairs(), [2]int{1, 8}) {
		t.Fatalf("fresh answer %v lacks (1, 8)", fa.Answer().Pairs())
	}
	wb, err := warm2.MultiSourceSmart(all)
	if err != nil {
		t.Fatal(err)
	}
	if !wb.Answer().Equal(fa.Answer()) {
		t.Fatalf("carried index answered %v, fresh %v", wb.Answer().Pairs(), fa.Answer().Pairs())
	}
}
