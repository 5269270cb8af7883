package cfpq

import (
	"fmt"

	"mscfpq/internal/grammar"
	"mscfpq/internal/graph"
	"mscfpq/internal/matrix"
)

// MSResult extends Result with the source sets accumulated by the
// multiple-source algorithm: Src[A] holds the vertices for which paths
// deriving from A were requested (directly or through the propagation
// of Algorithm 2 lines 13-14) — the paper's diagonal TSrc^A as a vector.
type MSResult struct {
	*Result
	Src []*matrix.Vector // per nonterminal: TSrc^A
	// Sources is the original query source set.
	Sources *matrix.Vector

	// answer is set by Index queries, whose T is the index's own.
	answer *matrix.Bool
}

// Answer returns the start-relation pairs restricted to the queried
// sources — the multiple-source CFPQ answer. The raw T^S matrix also
// holds the rows of every vertex the run activated for S, so
// restriction is required for a sound answer.
func (r *MSResult) Answer() *matrix.Bool {
	if r.answer != nil {
		return r.answer
	}
	return matrix.ExtractRows(r.Start(), r.Sources)
}

// MultiSource evaluates the context-free path query for paths starting
// at the vertices of src, using the paper's Algorithm 2. Compared to
// AllPairs, every binary-rule step first filters the left operand by the
// current source set:
//
//	M     = TSrc^A * T^B
//	T^A  += M * T^C
//	TSrc^B += TSrc^A
//	TSrc^C += getDst(M)
//
// so only rows relevant to the requested sources are ever computed. The
// fixpoint driver runs these steps on each round's new entries and new
// sources only.
func MultiSource(g *graph.Graph, w *grammar.WCNF, src *matrix.Vector, opts ...Option) (*MSResult, error) {
	if src == nil {
		return nil, fmt.Errorf("cfpq: nil source vector")
	}
	r, active, err := evaluate(g, w, src, false, opts)
	if err != nil {
		return nil, err
	}
	return &MSResult{Result: r.Result, Src: active, Sources: src.Clone()}, nil
}
