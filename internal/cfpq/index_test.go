package cfpq

import (
	"math/rand"
	"reflect"
	"testing"

	"mscfpq/internal/grammar"
	"mscfpq/internal/matrix"
)

func TestSmartMatchesMultiSourceSingleQuery(t *testing.T) {
	g := paperGraph()
	w := cndGrammar()
	for _, srcIdx := range [][]int{{3}, {4}, {0, 5}, {0, 1, 2, 3, 4, 5}} {
		src := matrix.NewVectorFromIndices(6, srcIdx)
		idx, err := NewIndex(g, w)
		if err != nil {
			t.Fatal(err)
		}
		smart, err := idx.MultiSourceSmart(src)
		if err != nil {
			t.Fatal(err)
		}
		ms, err := MultiSource(g, w, src)
		if err != nil {
			t.Fatal(err)
		}
		if !smart.Answer().Equal(ms.Answer()) {
			t.Fatalf("src=%v: smart=%v ms=%v", srcIdx, smart.Answer().Pairs(), ms.Answer().Pairs())
		}
	}
}

// Property: evaluating any chunked partition of a source set through a
// shared index yields, chunk by chunk, the same answers as fresh
// MultiSource runs — and the cache grows monotonically.
func TestSmartChunkedEqualsFreshProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	labels := []string{"a", "b", "subClassOf"}
	for name, w := range testGrammars() {
		w := w
		t.Run(name, func(t *testing.T) {
			for trial := 0; trial < 8; trial++ {
				n := 5 + rng.Intn(15)
				g := randomGraph(rng, n, 2+rng.Intn(3*n), labels)
				idx, err := NewIndex(g, w)
				if err != nil {
					t.Fatal(err)
				}
				perm := rng.Perm(n)
				chunk := 1 + rng.Intn(4)
				prevCached := 0
				for lo := 0; lo < n; lo += chunk {
					hi := min(lo+chunk, n)
					src := matrix.NewVectorFromIndices(n, perm[lo:hi])
					smart, err := idx.MultiSourceSmart(src)
					if err != nil {
						t.Fatal(err)
					}
					fresh, err := MultiSource(g, w, src)
					if err != nil {
						t.Fatal(err)
					}
					if !smart.Answer().Equal(fresh.Answer()) {
						t.Fatalf("trial %d chunk %d-%d: smart differs from fresh\nsmart: %v\nfresh: %v",
							trial, lo, hi, smart.Answer().Pairs(), fresh.Answer().Pairs())
					}
					cached := idx.ProcessedSources(idx.W.Start).NVals()
					if cached < prevCached {
						t.Fatalf("cache shrank: %d -> %d", prevCached, cached)
					}
					prevCached = cached
				}
				if idx.Queries() == 0 {
					t.Fatal("query counter not advanced")
				}
			}
		})
	}
}

func TestSmartRepeatedQueryIsCached(t *testing.T) {
	g := paperGraph()
	w := cndGrammar()
	idx, err := NewIndex(g, w)
	if err != nil {
		t.Fatal(err)
	}
	src := matrix.NewVectorFromIndices(6, []int{3, 4})
	first, err := idx.MultiSourceSmart(src)
	if err != nil {
		t.Fatal(err)
	}
	// All requested sources must now be cached (propagation may cache
	// more: sub-derivations make their mid vertices S-sources too).
	cached := idx.ProcessedSources(idx.W.Start)
	for _, v := range src.Ints() {
		if !cached.Get(v) {
			t.Fatalf("source %d not cached; cached = %v", v, cached)
		}
	}
	// Re-asking must give the same answer without growing the cache.
	second, err := idx.MultiSourceSmart(src)
	if err != nil {
		t.Fatal(err)
	}
	if !second.Answer().Equal(first.Answer()) {
		t.Fatal("repeated query answer differs")
	}
	if idx.ProcessedSources(idx.W.Start).NVals() != cached.NVals() {
		t.Fatal("cache grew on repeated query")
	}
}

func TestSmartSubsetQueryAfterSuperset(t *testing.T) {
	g := paperGraph()
	w := cndGrammar()
	idx, err := NewIndex(g, w)
	if err != nil {
		t.Fatal(err)
	}
	all := matrix.NewVectorFromIndices(6, []int{0, 1, 2, 3, 4, 5})
	if _, err := idx.MultiSourceSmart(all); err != nil {
		t.Fatal(err)
	}
	sub := matrix.NewVectorFromIndices(6, []int{4})
	smart, err := idx.MultiSourceSmart(sub)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := MultiSource(g, w, sub)
	if err != nil {
		t.Fatal(err)
	}
	if !smart.Answer().Equal(fresh.Answer()) {
		t.Fatalf("subset after superset differs: %v vs %v", smart.Answer().Pairs(), fresh.Answer().Pairs())
	}
}

func TestIndexErrors(t *testing.T) {
	if _, err := NewIndex(nil, nil); err == nil {
		t.Fatal("expected error for nil inputs")
	}
	idx, err := NewIndex(paperGraph(), cndGrammar())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := idx.MultiSourceSmart(matrix.NewVector(3)); err == nil {
		t.Fatal("expected size mismatch error")
	}
	if _, err := idx.MultiSourceSmart(nil); err == nil {
		t.Fatal("expected nil source error")
	}
}

// TestExtensionRows: a query's rules over the index's grammar answer
// from the index's relations, push their sources on to the declared
// nonterminals they use (Algorithm 8's rule), keep the facts about those
// in the index, and run no round when every source is processed.
func TestExtensionRows(t *testing.T) {
	g := paperGraph()
	idx, err := NewIndex(g, cndGrammar())
	if err != nil {
		t.Fatal(err)
	}
	w, err := grammar.Extend(idx.W, &grammar.Grammar{Start: "Q", Prods: []grammar.Production{
		{LHS: "Q", RHS: []grammar.Symbol{grammar.T("d"), grammar.N("S")}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	x, err := idx.Extend(w)
	if err != nil {
		t.Fatal(err)
	}
	src := matrix.NewVectorFromIndices(6, []int{2, 4, 5})
	rows, err := x.Rows(w.Start, src)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := AllPairs(g, w)
	if err != nil {
		t.Fatal(err)
	}
	if want := matrix.ExtractRows(ref.Start(), src); !reflect.DeepEqual(rows.Pairs(), want.Pairs()) {
		t.Fatalf("rows = %v, want %v", rows.Pairs(), want.Pairs())
	}
	// d leads from {2, 4, 5} to {4, 5}: S is solved as if asked for
	// exactly those.
	direct, err := NewIndex(g, cndGrammar())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := direct.MultiSourceSmart(matrix.NewVectorFromIndices(6, []int{4, 5})); err != nil {
		t.Fatal(err)
	}
	if got, want := idx.ProcessedSources(idx.W.Start), direct.ProcessedSources(idx.W.Start); !got.Equal(want) {
		t.Fatalf("S processed for %v, want %v", got.Ints(), want.Ints())
	}
	queries := idx.Queries()
	again, err := x.Rows(w.Start, src)
	if err != nil || !reflect.DeepEqual(again.Pairs(), rows.Pairs()) || idx.Queries() != queries {
		t.Fatalf("repeat: %v, rows %v then %v, %d solves after %d", err, rows.Pairs(), again.Pairs(), idx.Queries(), queries)
	}
	if _, err := idx.Extend(grammar.MustWCNF(grammar.MustParse("Q -> a"))); err == nil {
		t.Fatal("Extend accepted a grammar that does not extend the index's")
	}
}
