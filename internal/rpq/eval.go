package rpq

import (
	"fmt"

	"mscfpq/internal/cfpq"
	"mscfpq/internal/exec"
	"mscfpq/internal/grammar"
	"mscfpq/internal/graph"
	"mscfpq/internal/matrix"
)

// Eval answers a multiple-source regular path query with pair
// semantics: the result has (s, v) set when some path from a source s
// to v spells a word of the regex's language. A regular query is a
// partial case of CFPQ, so Eval compiles the regex, reduces its NFA to a
// right-linear grammar (ToGrammar) and runs the multiple-source CFPQ
// algorithm (Algorithm 2) through cfpq.Eval — the same fixpoint driver
// every context-free query uses, which also validates src. Context,
// timeout, budget and trace options apply, and the query's governor
// outcome is recorded.
func Eval(g *graph.Graph, query string, src *matrix.Vector, opts ...exec.Option) (*matrix.Bool, error) {
	if g == nil {
		return nil, fmt.Errorf("rpq: nil graph")
	}
	n, err := CompileRegex(query)
	if err != nil {
		return nil, err
	}
	w, err := grammar.ToWCNF(ToGrammar(n))
	if err != nil {
		return nil, err
	}
	res, err := cfpq.Eval(g, w, src, append(opts[:len(opts):len(opts)], exec.WithAlgorithm(exec.AlgMultiSource))...)
	if err != nil {
		return nil, err
	}
	nv := g.NumVertices()
	return matrix.NewBoolFromPairs(nv, nv, res.Pairs()), nil
}

// ToGrammar reduces the NFA to a right-linear context-free grammar whose
// language equals the automaton's: one nonterminal per state, a
// production Q_from -> l Q_to per transition, unit productions for eps
// transitions, and Q_accept -> eps. Running the CFPQ engine on this
// grammar answers the regular query (Eval), the paper's claim that
// regular queries are a partial case of CFPQ.
func ToGrammar(n *NFA) *grammar.Grammar {
	// '#' never occurs in a regex label, so no state name can collide
	// with a terminal.
	name := func(q int) string { return fmt.Sprintf("Q#%d", q) }
	var prods []grammar.Production
	// Iterate labels in sorted order: grammar nonterminal ids are
	// assigned in production order, so ranging the Trans map directly
	// would make the reduction nondeterministic across runs.
	for _, l := range n.Labels() {
		for _, tr := range n.Trans[l] {
			prods = append(prods, grammar.Production{
				LHS: name(tr[0]),
				RHS: []grammar.Symbol{grammar.T(l), grammar.N(name(tr[1]))},
			})
		}
	}
	for _, e := range n.Eps {
		prods = append(prods, grammar.Production{
			LHS: name(e[0]),
			RHS: []grammar.Symbol{grammar.N(name(e[1]))},
		})
	}
	prods = append(prods, grammar.Production{LHS: name(n.Accept)})
	return grammar.MustNew(name(n.Start), prods)
}
