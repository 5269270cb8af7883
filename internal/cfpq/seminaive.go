package cfpq

import (
	"mscfpq/internal/grammar"
	"mscfpq/internal/graph"
)

// AllPairsSemiNaive evaluates the all-pairs query with semi-naive
// (delta) iteration: instead of re-multiplying full relation matrices
// every round (Algorithm 1 line 8), each round multiplies only the
// entries discovered in the previous round against the full matrices,
//
//	new(A) = Δ(B) * T(C)  +  T(B) * Δ(C)
//
// which is the standard Datalog semi-naive rewrite lifted to Boolean
// matrices — the fixpoint driver run without a source restriction. The
// result is identical to AllPairs; the work saved grows with the number
// of fixpoint rounds (deep hierarchies).
func AllPairsSemiNaive(g *graph.Graph, w *grammar.WCNF, opts ...Option) (*Result, error) {
	r, _, err := evaluate(g, w, nil, false, opts)
	if err != nil {
		return nil, err
	}
	return r.Result, nil
}
