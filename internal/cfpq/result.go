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

// WithTrace attaches a per-query trace recording stage spans and
// kernel counter deltas.
var WithTrace = exec.WithTrace

// Result holds the context-free relations R_A computed by a query: one
// Boolean matrix per grammar nonterminal, where T^A[i,j] means there is
// a path from i to j whose word is derivable from A. Outside AllPairs,
// the relation of a label nonterminal (seeder.relations) is the graph's
// own matrix, shared with it: read-only, like every matrix of T.
type Result struct {
	W *grammar.WCNF
	T []*matrix.Bool // indexed by nonterminal id

	// Rounds is the number of fixpoint iterations until convergence and
	// Work the governor charge (relation entries produced). The
	// evaluators fill both; cmd/cfpq prints them.
	Rounds int
	Work   int64
}

// Start returns the relation matrix of the start nonterminal.
func (r *Result) Start() *matrix.Bool { return r.T[r.W.Start] }

// Pairs returns all (source, destination) pairs of the start relation.
func (r *Result) Pairs() [][2]int { return r.Start().Pairs() }

// PairsFrom returns the start-relation pairs whose source is in src.
func (r *Result) PairsFrom(src *matrix.Vector) [][2]int {
	return matrix.ExtractRows(r.Start(), src).Pairs()
}

// newResult allocates empty relation matrices for every nonterminal.
func newResult(w *grammar.WCNF, n int) *Result {
	r := &Result{W: w, T: make([]*matrix.Bool, w.NumNonterms())}
	for a := range r.T {
		r.T[a] = matrix.NewBool(n, n)
	}
	return r
}

// seeder holds what the terminals of a grammar match in a graph, so
// that a run seeds the rows it activates (Algorithm 1 lines 3 and 5-6 /
// Algorithm 2 lines 6-8, one row at a time). For A -> t, row i of T^A
// gains row i of the adjacency matrix of edge label t (the graph's
// cached transpose for an inverse label) and (i, i) if i carries vertex
// label t — only the first for a grammar.EdgeStep, only the second for
// a grammar.NodeCheck. A -> eps gives (i, i). It looks the terminals up
// on its first use (load), so one costs nothing until a row is seeded.
// A label relation (relations) holds its seeds in every row already, so
// seeding one of its rows only charges the row.
type seeder struct {
	g     *graph.Graph
	w     *grammar.WCNF
	edges []*matrix.Bool   // per terminal: the edges it matches; nil for none
	verts []*matrix.Vector // per terminal: the vertices it matches; nil for none
	label []bool           // per nonterminal: a label relation; nil before relations
}

func newSeeder(g *graph.Graph, w *grammar.WCNF) *seeder { return &seeder{g: g, w: w} }

func (s *seeder) load() {
	s.edges, s.verts = make([]*matrix.Bool, len(s.w.Terms)), make([]*matrix.Vector, len(s.w.Terms))
	for t, term := range s.w.Terms {
		edge, vertex := grammar.TermLabels(term)
		if edge != "" {
			if m := s.g.EdgeMatrix(edge); !m.Empty() {
				s.edges[t] = m
			}
		}
		if v := s.g.VertexSet(vertex); !v.Empty() {
			s.verts[t] = v
		}
	}
}

// relations returns the relations over n vertices of w's nonterminals
// from on, and below from only the label relations. A nonterminal is a
// label relation when its one rule is A -> t, t matching only edges on
// the graph (an edge step, or a term no vertex carries as a label): its
// relation is t's matrix, the graph's own (Algorithms 1-3 start T^A from
// it), which no run writes (derive writes the heads of binary rules
// alone). Any other gets a fresh, empty relation.
func (s *seeder) relations(n, from int) []*matrix.Bool {
	// rules counts the rules each nonterminal heads, a binary one as two.
	T, rules := make([]*matrix.Bool, s.w.NumNonterms()), make([]int, s.w.NumNonterms())
	for _, r := range s.w.BinRules {
		rules[r.A] = 2
	}
	for _, r := range s.w.TermRules {
		rules[r.A]++
	}
	s.label = make([]bool, len(T))
	for _, r := range s.w.TermRules {
		edge, vertex := grammar.TermLabels(s.w.Terms[r.Term])
		if rules[r.A] == 1 && !s.w.Nullable[r.A] && edge != "" && (vertex == "" || s.g.VertexSet(vertex).Empty()) {
			T[r.A], s.label[r.A] = s.g.EdgeMatrix(edge), true
		}
	}
	for a := from; a < len(T); a++ {
		if T[a] == nil {
			T[a] = matrix.NewBool(n, n)
		}
	}
	return T
}

// rows adds the seed facts of the rows listed in set, in any order, to
// t, the relation of nonterminal a, and charges the entries it adds to
// run as relation entries produced. A label relation gains nothing: it
// is charged the lengths of the rows, what copying them into an empty
// relation would add.
func (s *seeder) rows(run *exec.Run, t *matrix.Bool, a int, set []uint32) error {
	if len(set) == 0 {
		return nil
	}
	if a < len(s.label) && s.label[a] {
		n := 0
		for _, i := range set {
			n += t.RowLen(int(i))
		}
		return run.Charge(n)
	}
	if s.edges == nil {
		s.load()
	}
	diag := func(keep *matrix.Vector) {
		for _, i := range set {
			if keep == nil || keep.Get(int(i)) {
				t.Set(int(i), int(i))
			}
		}
	}
	before := t.NVals()
	for _, rule := range s.w.TermRules {
		if rule.A != a {
			continue
		}
		if m := s.edges[rule.Term]; m != nil {
			matrix.AddRowsInPlace(t, m, set)
		}
		if v := s.verts[rule.Term]; v != nil {
			diag(v)
		}
	}
	if s.w.Nullable[a] {
		diag(nil)
	}
	return run.Charge(t.NVals() - before)
}

// all seeds every row of every relation: the set-up of a run without a
// source restriction.
func (s *seeder) all(run *exec.Run, T []*matrix.Bool, n int) error {
	every := make([]uint32, n)
	for v := range every {
		every[v] = uint32(v)
	}
	for a := range T {
		if err := s.rows(run, T[a], a, every); err != nil {
			return err
		}
	}
	return nil
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
