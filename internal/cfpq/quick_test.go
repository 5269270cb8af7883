package cfpq

import (
	"testing"
	"testing/quick"

	"mscfpq/internal/grammar"
	"mscfpq/internal/graph"
	"mscfpq/internal/matrix"
)

// quickGraph materializes a graph from raw fuzz-style bytes.
func quickGraph(n int, edges []uint16) *graph.Graph {
	g := graph.New(n)
	labels := []string{"a", "b"}
	for _, e := range edges {
		src := int(e>>8) % n
		dst := int(e&0xff) % n
		g.AddEdge(src, labels[int(e)%2], dst)
	}
	return g
}

// Property (testing/quick): the multiple-source answer is always a
// subset of the all-pairs relation and exactly equals its row
// restriction — the core claim of Algorithm 2, driven by generated
// inputs rather than a hand-rolled loop.
func TestMultiSourceRestrictionQuick(t *testing.T) {
	w := grammar.MustWCNF(grammar.AnBn("a", "b"))
	f := func(edges []uint16, seeds []uint8) bool {
		const n = 20
		g := quickGraph(n, edges)
		src := matrix.NewVector(n)
		for _, s := range seeds {
			src.Set(int(s) % n)
		}
		ap, err := AllPairs(g, w)
		if err != nil {
			return false
		}
		ms, err := MultiSource(g, w, src)
		if err != nil {
			return false
		}
		return ms.Answer().Equal(matrix.ExtractRows(ap.Start(), src))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property (testing/quick): the answer is monotone in the source set.
func TestMultiSourceMonotoneQuick(t *testing.T) {
	w := grammar.MustWCNF(grammar.SameGen("a"))
	f := func(edges []uint16, seeds []uint8) bool {
		const n = 18
		g := quickGraph(n, edges)
		small := matrix.NewVector(n)
		big := matrix.NewVector(n)
		for i, s := range seeds {
			big.Set(int(s) % n)
			if i%3 == 0 {
				small.Set(int(s) % n)
			}
		}
		rs, err := MultiSource(g, w, small)
		if err != nil {
			return false
		}
		rb, err := MultiSource(g, w, big)
		if err != nil {
			return false
		}
		// Every pair answered for the small set appears for the big set.
		ok := true
		rs.Answer().Iterate(func(i, j int) bool {
			if !rb.Answer().Get(i, j) {
				ok = false
				return false
			}
			return true
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property (testing/quick): the two all-pairs engines agree (naive,
// semi-naive).
func TestAllEnginesAgreeQuick(t *testing.T) {
	w := grammar.MustWCNF(grammar.Dyck1("a", "b"))
	f := func(edges []uint16) bool {
		const n = 14
		g := quickGraph(n, edges)
		base, err := AllPairs(g, w)
		if err != nil {
			return false
		}
		sn, err := AllPairsSemiNaive(g, w)
		return err == nil && sn.Start().Equal(base.Start())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
