package mscfpq

import (
	"testing"

	"mscfpq/internal/cfpq"
)

// Regression tests for the degenerate inputs the differential harness
// generators produce: empty source sets, duplicate and out-of-range
// vertex ids, single-vertex and zero-vertex graphs. All of these must
// yield well-defined answers without relying on caller discipline.

func TestNewVertexSetSanitizes(t *testing.T) {
	src := NewVertexSet(4, 2, 2, 2, -1, 4, 99, 0)
	if got := src.Ints(); len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Fatalf("NewVertexSet kept %v, want [0 2]", got)
	}
	if src.Size() != 4 {
		t.Fatalf("Size = %d, want 4", src.Size())
	}
	// All ids invalid: a usable empty set, not a panic.
	if got := NewVertexSet(3, -5, 7).NVals(); got != 0 {
		t.Fatalf("invalid-only ids: NVals = %d, want 0", got)
	}
	// Zero-size universe.
	if got := NewVertexSet(0, 0, 1).NVals(); got != 0 {
		t.Fatalf("empty universe: NVals = %d, want 0", got)
	}
}

func TestMultiSourceEmptySourceSet(t *testing.T) {
	g := NewGraph(3)
	g.AddEdge(0, "a", 1)
	g.AddEdge(1, "b", 2)
	w, err := ToWCNF(AnBnGrammar())
	if err != nil {
		t.Fatal(err)
	}
	res, err := cfpq.MultiSource(g, w, NewVertexSet(3))
	if err != nil {
		t.Fatalf("empty source set: %v", err)
	}
	if res.Answer().NVals() != 0 {
		t.Fatalf("empty source set answered %v", res.Answer().Pairs())
	}
	// The index variant must accept it too, repeatedly.
	idx, err := NewIndex(g, w)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		r, err := idx.MultiSourceSmart(NewVertexSet(3))
		if err != nil {
			t.Fatalf("index query %d: %v", i, err)
		}
		if r.Answer().NVals() != 0 {
			t.Fatalf("index query %d answered %v", i, r.Answer().Pairs())
		}
	}
}

func TestMultiSourceSingleVertexGraph(t *testing.T) {
	g := NewGraph(1)
	g.AddEdge(0, "a", 0)
	g.AddEdge(0, "b", 0)
	w, err := ToWCNF(AnBnGrammar())
	if err != nil {
		t.Fatal(err)
	}
	res, err := cfpq.MultiSource(g, w, NewVertexSet(1, 0, 0))
	if err != nil {
		t.Fatal(err)
	}
	// a^n b^n over self loops on a single vertex: (0, 0) is derivable.
	if !res.Answer().Get(0, 0) {
		t.Fatal("single-vertex self-loop answer missing (0,0)")
	}
	ap, err := cfpq.AllPairs(g, w)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Answer().Equal(ap.Start()) {
		t.Fatalf("single-vertex: multi-source %v != all-pairs %v",
			res.Answer().Pairs(), ap.Start().Pairs())
	}
	sp, err := cfpq.MultiSourceSinglePath(g, w, NewVertexSet(1, 0))
	if err != nil {
		t.Fatal(err)
	}
	steps, err := sp.Path(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(steps) == 0 {
		t.Fatal("single-vertex witness path is empty")
	}
}

func TestQueriesOnZeroVertexGraph(t *testing.T) {
	g := NewGraph(0)
	w, err := ToWCNF(AnBnGrammar())
	if err != nil {
		t.Fatal(err)
	}
	if ap, err := cfpq.AllPairs(g, w); err != nil || ap.Start().NVals() != 0 {
		t.Fatalf("AllPairs on empty graph: %v, %v", ap, err)
	}
	res, err := cfpq.MultiSource(g, w, NewVertexSet(0))
	if err != nil {
		t.Fatalf("MultiSource on empty graph: %v", err)
	}
	if res.Answer().NVals() != 0 {
		t.Fatalf("MultiSource on empty graph answered %v", res.Answer().Pairs())
	}
	reach, err := EvalRPQ(g, "a+", NewVertexSet(0))
	if err != nil {
		t.Fatalf("EvalRPQ on empty graph: %v", err)
	}
	if reach.NVals() != 0 {
		t.Fatalf("EvalRPQ on empty graph answered %v", reach.Pairs())
	}
}

func TestMultiSourceSizeMismatchStillErrors(t *testing.T) {
	g := NewGraph(3)
	g.AddEdge(0, "a", 1)
	w, err := ToWCNF(AnBnGrammar())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cfpq.MultiSource(g, w, NewVertexSet(2, 0)); err == nil {
		t.Fatal("size-mismatched source vector must error")
	}
	if _, err := cfpq.MultiSource(g, w, nil); err == nil {
		t.Fatal("nil source vector must error")
	}
}
