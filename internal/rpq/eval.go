package rpq

import (
	"fmt"

	"mscfpq/internal/cfpq"
	"mscfpq/internal/cypher"
	"mscfpq/internal/exec"
	"mscfpq/internal/grammar"
	"mscfpq/internal/graph"
	"mscfpq/internal/matrix"
	"mscfpq/internal/plan"
)

// Eval answers a multiple-source regular path query with pair
// semantics: the result has (s, v) set when some path from a source s
// to v spells a word of the regex's language. A regular query is a
// partial case of CFPQ, so Eval compiles the regex (Compile) and runs
// the multiple-source CFPQ algorithm (Algorithm 2, cfpq.MultiSource) —
// the same fixpoint driver every context-free query uses, which also
// validates src — and returns its answer, the start relation's rows of
// the sources, copied once. Context, timeout, budget and trace options
// apply, and the query's governor outcome is recorded.
func Eval(g *graph.Graph, query string, src *matrix.Vector, opts ...exec.Option) (*matrix.Bool, error) {
	if g == nil {
		return nil, fmt.Errorf("rpq: nil graph")
	}
	w, err := Compile(query)
	if err != nil {
		return nil, err
	}
	res, err := cfpq.MultiSource(g, w, src, opts...)
	exec.RecordOutcome(err)
	if err != nil {
		return nil, err
	}
	return res.Answer(), nil
}

// Compile parses a regex and compiles it into the grammar Eval runs:
// the path expression it denotes (path), compiled by the query
// language's path-pattern compiler (plan.PatternsToGrammar), which folds
// it left-linear, and normalized to weak Chomsky normal form.
func Compile(query string) (*grammar.WCNF, error) {
	n, err := ParseRegex(query)
	if err != nil {
		return nil, err
	}
	cf, err := plan.PatternsToGrammar([]cypher.NamedPathPattern{{Name: "Q", Expr: path(n)}})
	if err != nil {
		return nil, err
	}
	return grammar.ToWCNF(cf)
}

// path translates a regex into the path expression it denotes. A label
// l matches an l edge or, as a zero-length step, a vertex labeled l, so
// it becomes [:l | (:l)]; an inverse label "x_r" is a step along x
// edges backwards, as everywhere in this module.
func path(n Node) cypher.PathExpr {
	switch v := n.(type) {
	case Label:
		return cypher.PEAlt{Alts: []cypher.PathExpr{cypher.PERel{Type: v.Name}, cypher.PENode{Labels: []string{v.Name}}}}
	case Concat:
		return cypher.PESeq{Parts: []cypher.PathExpr{path(v.Left), path(v.Right)}}
	case Alt:
		return cypher.PEAlt{Alts: []cypher.PathExpr{path(v.Left), path(v.Right)}}
	case Star:
		return cypher.PEStar{Sub: path(v.Sub)}
	case Plus:
		return cypher.PEPlus{Sub: path(v.Sub)}
	case Opt:
		return cypher.PEOpt{Sub: path(v.Sub)}
	default:
		panic(fmt.Sprintf("rpq: unknown AST node %T", n))
	}
}
