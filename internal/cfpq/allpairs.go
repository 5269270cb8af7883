package cfpq

import (
	"mscfpq/internal/exec"
	"mscfpq/internal/grammar"
	"mscfpq/internal/graph"
	"mscfpq/internal/obs"
)

// AllPairs evaluates the context-free path query defined by w over g for
// every pair of vertices, using Azimov's matrix-based algorithm
// (Algorithm 1): relation matrices are seeded from the simple and eps
// rules and grown by Boolean matrix multiplication
//
//	T^A += T^B * T^C   for every A -> B C
//
// until no matrix changes.
func AllPairs(g *graph.Graph, w *grammar.WCNF, opts ...Option) (*Result, error) {
	if err := checkInputs(g, w); err != nil {
		return nil, err
	}
	run, cancel := exec.Build(opts).Start()
	defer cancel()
	n := g.NumVertices()
	r := newResult(w, n)
	if err := newSeeder(g, w).all(run, r.T, n); err != nil {
		return nil, err
	}

	for changed := true; changed; {
		// Poll once per round: with no binary rules the body below is
		// empty, and the governor must still be able to abort.
		if err := run.Err(); err != nil {
			return nil, err
		}
		changed = false
		r.Rounds++
		span := run.StartSpan(obs.SpanRound(r.Rounds))
		for _, rule := range w.BinRules {
			prod, err := run.Mul(r.T[rule.B], r.T[rule.C])
			if err != nil {
				span.End()
				return nil, err
			}
			if run.Add(r.T[rule.A], prod) {
				changed = true
			}
		}
		span.End()
	}
	obs.CFPQRounds.Observe(int64(r.Rounds))
	r.Work = run.Spent()
	return r, nil
}
