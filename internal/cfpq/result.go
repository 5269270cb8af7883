package cfpq

import (
	"fmt"

	"mscfpq/internal/exec"
	"mscfpq/internal/grammar"
	"mscfpq/internal/graph"
	"mscfpq/internal/matrix"
)

// Option tunes algorithm execution. It is an alias of exec.Option, so
// the same options (context, timeout, budget, trace) work uniformly
// across the CFPQ and RPQ entry points.
type Option = exec.Option

// WithContext attaches a cancellation context to the query.
var WithContext = exec.WithContext

// WithTimeout bounds the query's wall-clock execution time.
var WithTimeout = exec.WithTimeout

// WithBudget bounds the query's total work (relation entries produced
// across fixpoint iterations).
var WithBudget = exec.WithBudget

// WithRun shares an existing execution governor across layers of one
// query.
var WithRun = exec.WithRun

// WithTrace attaches a per-query trace recording stage spans and
// kernel counter deltas.
var WithTrace = exec.WithTrace

// WithAlgorithm selects the evaluation algorithm for Eval.
var WithAlgorithm = exec.WithAlgorithm

// Result holds the context-free relations R_A computed by a query: one
// Boolean matrix per grammar nonterminal, where T^A[i,j] means there is
// a path from i to j whose word is derivable from A.
type Result struct {
	W *grammar.WCNF
	T []*matrix.Bool // indexed by nonterminal id

	// Rounds is the number of fixpoint iterations until convergence and
	// Work the governor charge (relation entries produced); both are
	// filled by the evaluation algorithms for Stats reporting.
	Rounds int
	Work   int64
}

// Matrix returns the relation matrix of the named nonterminal; nil if
// the nonterminal does not exist.
func (r *Result) Matrix(nonterm string) *matrix.Bool {
	id := r.W.NontermID(nonterm)
	if id < 0 {
		return nil
	}
	return r.T[id]
}

// Start returns the relation matrix of the start nonterminal.
func (r *Result) Start() *matrix.Bool { return r.T[r.W.Start] }

// Pairs returns all (source, destination) pairs of the start relation.
func (r *Result) Pairs() [][2]int { return r.Start().Pairs() }

// PairsFrom returns the start-relation pairs whose source is in src.
func (r *Result) PairsFrom(src *matrix.Vector) [][2]int {
	return matrix.ExtractRows(r.Start(), src).Pairs()
}

// ReachableFrom returns the set of vertices to such that (v, to) is in
// the start relation for some v in src.
func (r *Result) ReachableFrom(src *matrix.Vector) *matrix.Vector {
	return matrix.ReduceCols(matrix.ExtractRows(r.Start(), src))
}

// newResult allocates empty relation matrices for every nonterminal.
func newResult(w *grammar.WCNF, n int) *Result {
	r := &Result{W: w, T: make([]*matrix.Bool, w.NumNonterms())}
	for a := range r.T {
		r.T[a] = matrix.NewBool(n, n)
	}
	return r
}

// seed adds to T the facts of the simple and eps rules of the
// nonterminals from on (Algorithm 1 lines 3 and 5-6 / Algorithm 2 lines
// 6-8). For A -> t, T^A gains the adjacency matrix of edge label t
// (transpose for inverse labels) and the diagonal vertex matrix of
// vertex label t — only the first for a grammar.EdgeStep, only the
// second for a grammar.NodeCheck. A -> eps relates every vertex to
// itself.
func seed(T []*matrix.Bool, w *grammar.WCNF, g *graph.Graph, from int) {
	for _, rule := range w.TermRules {
		if rule.A < from {
			continue
		}
		edge, vertex := grammar.TermLabels(w.Terms[rule.Term])
		if em := g.EdgeMatrix(edge); em.NVals() > 0 {
			matrix.AddInPlace(T[rule.A], em)
		}
		if g.VertexSet(vertex).NVals() > 0 {
			matrix.AddInPlace(T[rule.A], g.VertexMatrix(vertex))
		}
	}
	for a := from; a < len(w.Nullable); a++ {
		if w.Nullable[a] {
			matrix.AddInPlace(T[a], matrix.Identity(g.NumVertices()))
		}
	}
}

func checkInputs(g *graph.Graph, w *grammar.WCNF) error {
	if g == nil || w == nil {
		return fmt.Errorf("cfpq: nil graph or grammar")
	}
	if w.NumNonterms() == 0 {
		return fmt.Errorf("cfpq: grammar has no nonterminals")
	}
	return nil
}
