package cfpq

import (
	"fmt"

	"mscfpq/internal/exec"
	"mscfpq/internal/grammar"
	"mscfpq/internal/graph"
	"mscfpq/internal/matrix"
)

// Stats describes one evaluation for the unified Eval entry point.
type Stats struct {
	// Algorithm is the algorithm that actually ran (AlgAuto resolved).
	Algorithm exec.Algorithm
	// Rounds is the number of fixpoint iterations (0 for the worklist
	// solver, which has no matrix rounds).
	Rounds int
	// Work is the governor charge: relation entries produced (facts
	// propagated, for the worklist).
	Work int64
	// Answers is the number of result pairs.
	Answers int
}

// EvalResult is the common result of the unified Eval entry point:
// answer pairs plus evaluation statistics, independent of which
// algorithm produced them.
type EvalResult interface {
	// Pairs returns the (source, destination) pairs of the start
	// relation, restricted to the queried sources when a source set was
	// given.
	Pairs() [][2]int
	// Stats returns the evaluation statistics.
	Stats() Stats
}

// PathEvalResult is the extension implemented by the single-path
// algorithms (AlgSinglePath, AlgMSSinglePath): one witness path can be
// reconstructed per answer pair.
type PathEvalResult interface {
	EvalResult
	// Path reconstructs one path witnessing (src, dst).
	Path(src, dst int) ([]PathStep, error)
}

// evalResult is the concrete EvalResult; path is non-nil only for the
// single-path algorithms.
type evalResult struct {
	pairs [][2]int
	stats Stats
	path  func(src, dst int) ([]PathStep, error)
}

func (r *evalResult) Pairs() [][2]int { return r.pairs }
func (r *evalResult) Stats() Stats    { return r.stats }

// pathEvalResult wraps evalResult so only single-path evaluations
// satisfy PathEvalResult.
type pathEvalResult struct{ evalResult }

func (r *pathEvalResult) Path(src, dst int) ([]PathStep, error) { return r.path(src, dst) }

// Eval is the unified CFPQ entry point: it evaluates the query defined
// by w over g with the algorithm selected by WithAlgorithm (AlgAuto
// picks by query shape: multiple-source when src is non-nil, all-pairs
// otherwise). A non-nil src restricts the answer pairs to those
// sources for every algorithm, so the algorithm options are
// interchangeable. All exec options (timeout, budget, trace) apply.
//
// The per-algorithm constructors (AllPairs, MultiSource, ...) remain for
// callers that need their richer concrete results.
func Eval(g *graph.Graph, w *grammar.WCNF, src *matrix.Vector, opts ...Option) (EvalResult, error) {
	alg := exec.Build(opts).Algorithm
	if alg == exec.AlgAuto {
		if src != nil {
			alg = exec.AlgMultiSource
		} else {
			alg = exec.AlgMatrix
		}
	}
	res, err := evalWith(alg, g, w, src, opts)
	exec.RecordOutcome(err)
	if err != nil {
		return nil, err
	}
	return res, nil
}

func evalWith(alg exec.Algorithm, g *graph.Graph, w *grammar.WCNF, src *matrix.Vector, opts []Option) (EvalResult, error) {
	needSrc := func() error {
		if src == nil {
			return fmt.Errorf("cfpq: algorithm %v requires a source set", alg)
		}
		return nil
	}
	// restrict computes the answer pairs of an all-pairs result,
	// honoring the source restriction.
	restrict := func(r *Result) [][2]int {
		if src != nil {
			return r.PairsFrom(src)
		}
		return r.Pairs()
	}
	mk := func(pairs [][2]int, rounds int, work int64) *evalResult {
		return &evalResult{pairs: pairs, stats: Stats{
			Algorithm: alg, Rounds: rounds, Work: work, Answers: len(pairs)}}
	}
	switch alg {
	case exec.AlgMatrix:
		r, err := AllPairs(g, w, opts...)
		if err != nil {
			return nil, err
		}
		return mk(restrict(r), r.Rounds, r.Work), nil
	case exec.AlgSemiNaive:
		r, err := AllPairsSemiNaive(g, w, opts...)
		if err != nil {
			return nil, err
		}
		return mk(restrict(r), r.Rounds, r.Work), nil
	case exec.AlgWorklist:
		if src == nil {
			r, err := Worklist(g, w, opts...)
			if err != nil {
				return nil, err
			}
			return mk(r.Pairs(), r.Rounds, r.Work), nil
		}
		run, cancel := exec.Build(opts).Start()
		defer cancel()
		m, err := WorklistMultiSource(g, w, src, WithRun(run))
		if err != nil {
			return nil, err
		}
		return mk(m.Pairs(), 0, run.Spent()), nil
	case exec.AlgMultiSource:
		if err := needSrc(); err != nil {
			return nil, err
		}
		r, err := MultiSource(g, w, src, opts...)
		if err != nil {
			return nil, err
		}
		return mk(r.Answer().Pairs(), r.Rounds, r.Work), nil
	case exec.AlgSinglePath:
		r, err := SinglePath(g, w, opts...)
		if err != nil {
			return nil, err
		}
		res := mk(restrict(r.Result), r.Rounds, r.Work)
		return &pathEvalResult{evalResult{pairs: res.pairs, stats: res.stats, path: r.Path}}, nil
	case exec.AlgMSSinglePath:
		if err := needSrc(); err != nil {
			return nil, err
		}
		r, err := MultiSourceSinglePath(g, w, src, opts...)
		if err != nil {
			return nil, err
		}
		res := mk(r.Answer().Pairs(), r.Rounds, r.Work)
		return &pathEvalResult{evalResult{pairs: res.pairs, stats: res.stats, path: r.Path}}, nil
	default:
		return nil, fmt.Errorf("cfpq: unknown algorithm %v", alg)
	}
}
