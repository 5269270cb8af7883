package cfpq

import (
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"

	"mscfpq/internal/dataset"
	"mscfpq/internal/grammar"
	"mscfpq/internal/graph"
	"mscfpq/internal/matrix"
)

// edgeOf returns the edge label of the term rule nonterminal a heads,
// "" for none.
func edgeOf(w *grammar.WCNF, a int) string {
	for _, r := range w.TermRules {
		if r.A == a {
			edge, _ := grammar.TermLabels(w.Terms[r.Term])
			return edge
		}
	}
	return ""
}

// checkLabelRelations asserts that every T#… relation of T, the
// relations of w on g, is g's own matrix of its label: pointer-identical
// to EdgeMatrix when g has such edges, empty when it has none (g then
// hands out a fresh matrix per call).
func checkLabelRelations(t *testing.T, where string, g *graph.Graph, w *grammar.WCNF, T []*matrix.Bool) {
	t.Helper()
	helpers := 0
	for a, name := range w.Nonterms {
		if !strings.HasPrefix(name, "T#") {
			continue
		}
		helpers++
		if m := g.EdgeMatrix(edgeOf(w, a)); T[a] != m && !(m.Empty() && T[a].Empty()) {
			t.Errorf("%s: %s is not the graph's matrix", where, name)
		}
	}
	if helpers == 0 {
		t.Fatalf("%s: no T# helper to check", where)
	}
}

// graphMatrices clones the matrices of every edge label w's terms name,
// inverse labels included, keyed by label.
func graphMatrices(g *graph.Graph, w *grammar.WCNF) map[string]*matrix.Bool {
	out := map[string]*matrix.Bool{}
	for _, term := range w.Terms {
		if edge, _ := grammar.TermLabels(term); edge != "" {
			out[edge] = g.EdgeMatrix(edge).Clone()
		}
	}
	return out
}

// TestLabelRelationsAreTheGraphs: on the paper's benchmark shapes, G1
// and G2 over pathways and go-hierarchy@0.02, the relation of every WCNF
// helper T#x -> x is the graph's own matrix of x — in a fresh index and
// after its queries, in an Extension that adds a compiled :l step, in
// NewIndexWarm carries across an apart and a touching write, and in the
// index-free evaluators. Nothing writes it: after every solve the
// graph's matrices equal clones taken before, and every processed row
// equals AllPairs, which keeps copies of its own.
func TestLabelRelationsAreTheGraphs(t *testing.T) {
	for _, input := range []struct {
		dataset string
		scale   float64
	}{{"pathways", 1}, {"go-hierarchy", 0.02}} {
		spec, err := dataset.ByName(input.dataset)
		if err != nil {
			t.Fatal(err)
		}
		g := dataset.Generate(dataset.Scaled(spec, input.scale))
		n := g.NumVertices()
		src := matrix.NewVectorFromIndices(n, rand.New(rand.NewSource(1)).Perm(n)[:30])
		for _, gname := range []string{"G1", "G2"} {
			t.Run(input.dataset+"/"+gname, func(t *testing.T) {
				w := grammar.MustWCNF(grammar.G1())
				if gname == "G2" {
					w = grammar.MustWCNF(grammar.G2())
				}
				before := graphMatrices(g, w)
				ap, err := AllPairs(g, w)
				if err != nil {
					t.Fatal(err)
				}
				idx, err := NewIndex(g, w)
				if err != nil {
					t.Fatal(err)
				}
				checkLabelRelations(t, "fresh index", g, w, idx.T)
				ans, err := idx.MultiSourceSmart(src)
				if err != nil {
					t.Fatal(err)
				}
				checkLabelRelations(t, "solved index", g, w, idx.T)
				if !ans.Answer().Equal(matrix.ExtractRows(ap.Start(), src)) {
					t.Error("index answer differs from AllPairs")
				}
				for a := range w.Nonterms {
					done := idx.ProcessedSources(a)
					if !matrix.ExtractRows(idx.Relation(a), done).Equal(matrix.ExtractRows(ap.T[a], done)) {
						t.Errorf("%s differs from AllPairs on its processed rows", w.Nonterms[a])
					}
				}

				we, err := grammar.Extend(w, &grammar.Grammar{Start: "P", Prods: []grammar.Production{
					{LHS: "P", RHS: []grammar.Symbol{grammar.N("S"), grammar.T(grammar.EdgeStep("subClassOf_r"))}},
				}})
				if err != nil {
					t.Fatal(err)
				}
				x, err := idx.Extend(we)
				if err != nil {
					t.Fatal(err)
				}
				rows, err := x.Rows(we.Start, src)
				if err != nil {
					t.Fatal(err)
				}
				checkLabelRelations(t, "extension", g, we, x.t)
				apx, err := AllPairs(g, we)
				if err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(rows.Pairs(), matrix.ExtractRows(apx.Start(), src).Pairs()) {
					t.Error("extension rows differ from AllPairs")
				}

				ms, err := MultiSource(g, w, src)
				if err != nil {
					t.Fatal(err)
				}
				checkLabelRelations(t, "MultiSource", g, w, ms.T)
				if !ms.Answer().Equal(matrix.ExtractRows(ap.Start(), src)) {
					t.Error("MultiSource answer differs from AllPairs")
				}
				sn, err := AllPairsSemiNaive(g, w)
				if err != nil {
					t.Fatal(err)
				}
				checkLabelRelations(t, "AllPairsSemiNaive", g, w, sn.T)
				for a := range sn.T {
					if !sn.T[a].Equal(ap.T[a]) {
						t.Errorf("AllPairsSemiNaive: %s differs from AllPairs", w.Nonterms[a])
					}
				}
				sp, err := SinglePath(g, w)
				if err != nil {
					t.Fatal(err)
				}
				checkLabelRelations(t, "SinglePath", g, w, sp.T)

				// Apart: a write between two new vertices keeps every
				// processed source; touching: an edge from an old vertex
				// drops them.
				apart := g.CowClone()
				apart.AddEdge(n, "subClassOf", n+1)
				warm, err := NewIndexWarm(apart, w, idx)
				if err != nil {
					t.Fatal(err)
				}
				checkLabelRelations(t, "apart carry", apart, w, warm.T)
				for a := range w.Nonterms {
					if !slices.Equal(warm.ProcessedSources(a).Ints(), idx.ProcessedSources(a).Ints()) {
						t.Errorf("apart carry: %s lost its processed sources", w.Nonterms[a])
					}
				}
				touching := g.CowClone()
				touching.AddEdge(0, "subClassOf", n)
				touched, err := NewIndexWarm(touching, w, idx)
				if err != nil {
					t.Fatal(err)
				}
				checkLabelRelations(t, "touching carry", touching, w, touched.T)
				src2 := matrix.NewVectorFromIndices(n+1, src.Ints())
				got, err := touched.MultiSourceSmart(src2)
				if err != nil {
					t.Fatal(err)
				}
				ref, err := AllPairs(touching, w)
				if err != nil {
					t.Fatal(err)
				}
				if !got.Answer().Equal(matrix.ExtractRows(ref.Start(), src2)) {
					t.Error("touching carry: answer differs from AllPairs")
				}

				for l, m := range before {
					if !g.EdgeMatrix(l).Equal(m) {
						t.Errorf("the graph's matrix of %s changed", l)
					}
				}
			})
		}
	}
}

// TestLabelRelationGuard: a nonterminal whose relation is not exactly
// one label's edges keeps a relation of its own, and answers as AllPairs
// does — a bare term that also labels vertices on the graph (its
// relation is edges ∪ diagonal), a nullable helper, and a helper with
// two term rules. Each of them is A below (T#a for the first).
func TestLabelRelationGuard(t *testing.T) {
	rng := rand.New(rand.NewSource(64))
	g := randomGraph(rng, 14, 40, []string{"a", "b", "c"})
	g.AddVertexLabel(3, "a")
	g.AddVertexLabel(9, "a")
	for _, text := range []string{
		"S -> a S b | a b",
		"S -> A b | A S b\nA -> a | eps",
		"S -> A b | A S b\nA -> a | c",
	} {
		w := grammar.MustWCNF(grammar.MustParse(text))
		before := graphMatrices(g, w)
		own := w.NontermID("A")
		if own < 0 {
			own = w.NontermID("T#a")
		}
		edge := edgeOf(w, own)
		if own < 0 || edge != "a" {
			t.Fatalf("%q: no helper for a in %v", text, w)
		}
		ap, err := AllPairs(g, w)
		if err != nil {
			t.Fatal(err)
		}
		idx, err := NewIndex(g, w)
		if err != nil {
			t.Fatal(err)
		}
		n := g.NumVertices()
		for v := range n {
			src := matrix.NewVectorFromIndices(n, []int{v})
			got, err := idx.MultiSourceSmart(src)
			if err != nil {
				t.Fatal(err)
			}
			ms, err := MultiSource(g, w, src)
			if err != nil {
				t.Fatal(err)
			}
			want := matrix.ExtractRows(ap.Start(), src)
			if !got.Answer().Equal(want) || !ms.Answer().Equal(want) {
				t.Fatalf("%q from %d: index %v, MultiSource %v, AllPairs %v", text, v, got.Answer().Pairs(), ms.Answer().Pairs(), want.Pairs())
			}
			if ms.T[own] == g.EdgeMatrix(edge) {
				t.Fatalf("%q: MultiSource reads %s from the graph", text, w.Nonterms[own])
			}
		}
		if idx.Relation(own) == g.EdgeMatrix(edge) || idx.seeds.label[own] {
			t.Errorf("%q: %s reads the graph's matrix of %s", text, w.Nonterms[own], edge)
		}
		for a := range w.Nonterms {
			done := idx.ProcessedSources(a)
			if !matrix.ExtractRows(idx.Relation(a), done).Equal(matrix.ExtractRows(ap.T[a], done)) {
				t.Errorf("%q: %s differs from AllPairs on its processed rows", text, w.Nonterms[a])
			}
		}
		sn, err := AllPairsSemiNaive(g, w)
		if err != nil {
			t.Fatal(err)
		}
		for a := range sn.T {
			if !sn.T[a].Equal(ap.T[a]) {
				t.Errorf("%q: AllPairsSemiNaive %s differs from AllPairs", text, w.Nonterms[a])
			}
		}
		for l, m := range before {
			if !g.EdgeMatrix(l).Equal(m) {
				t.Errorf("%q: the graph's matrix of %s changed", text, l)
			}
		}
	}
}

// TestLabelRelationsSharedAcrossIndexes: indexes over one graph share
// its matrices, so their solves read them at once. Four goroutines each
// build an index (G1 or G2) and an Extension on a graph whose inverse
// transposes are not cached yet, and answer chunks through both; every
// answer must equal AllPairs on a twin of the graph. Run it under -race.
func TestLabelRelationsSharedAcrossIndexes(t *testing.T) {
	spec, err := dataset.ByName("pathways")
	if err != nil {
		t.Fatal(err)
	}
	g, twin := dataset.Generate(dataset.Scaled(spec, 0.25)), dataset.Generate(dataset.Scaled(spec, 0.25))
	n := g.NumVertices()
	ws := []*grammar.WCNF{grammar.MustWCNF(grammar.G1()), grammar.MustWCNF(grammar.G2())}
	refs := make([]*Result, len(ws))
	for k, w := range ws {
		if refs[k], err = AllPairs(twin, w); err != nil {
			t.Fatal(err)
		}
	}
	perm := rand.New(rand.NewSource(3)).Perm(n)
	var wg sync.WaitGroup
	for i := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w, ref := ws[i%2], refs[i%2]
			idx, err := NewIndex(g, w)
			if err != nil {
				t.Error(err)
				return
			}
			x, err := idx.Extend(w)
			if err != nil {
				t.Error(err)
				return
			}
			for c := range 5 {
				src := matrix.NewVectorFromIndices(n, perm[(i*5+c)*10:(i*5+c+1)*10])
				want := matrix.ExtractRows(ref.Start(), src).Pairs()
				got, err := idx.MultiSourceSmart(src)
				if err != nil {
					t.Error(err)
					return
				}
				rows, err := x.Rows(w.Start, src)
				if err != nil {
					t.Error(err)
					return
				}
				if !slices.Equal(got.Answer().Pairs(), want) || !slices.Equal(rows.Pairs(), want) {
					t.Errorf("goroutine %d chunk %d: answer differs from AllPairs", i, c)
				}
			}
		}()
	}
	wg.Wait()
}
