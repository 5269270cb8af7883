package rpq_test

import (
	"math/rand"
	"testing"

	"mscfpq/internal/graph"
	"mscfpq/internal/matrix"
	"mscfpq/internal/oracle"
	"mscfpq/internal/rpq"
)

// The oracle imports rpq for its regex AST, so the comparison against
// it lives in the external test package.

// Property (experiment E11's correctness leg): RPQ through the CFPQ
// driver equals the relation-algebra oracle on random graphs.
func TestRPQViaCFPQProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	regexes := []string{"a b", "a+ b", "(a | b)*", "a_r* b"}
	for _, srcRe := range regexes {
		re, err := rpq.ParseRegex(srcRe)
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 8; trial++ {
			nv := 3 + rng.Intn(10)
			g := graph.New(nv)
			for e := 0; e < 2+rng.Intn(3*nv); e++ {
				label := "a"
				if rng.Intn(2) == 0 {
					label = "b"
				}
				g.AddEdge(rng.Intn(nv), label, rng.Intn(nv))
			}
			src := matrix.NewVector(nv)
			for v := 0; v < nv; v++ {
				if rng.Intn(3) == 0 {
					src.Set(v)
				}
			}
			got, err := rpq.Eval(g, srcRe, src)
			if err != nil {
				t.Fatal(err)
			}
			want := matrix.NewBoolFromPairs(nv, nv, oracle.RPQ(g, re, src.Ints()))
			if !got.Equal(want) {
				t.Fatalf("regex %q trial %d: cfpq=%v oracle=%v",
					srcRe, trial, got.Pairs(), want.Pairs())
			}
		}
	}
}
