// Package plan builds and evaluates execution plans for the database
// layer, reproducing the paper's Section 4.3: MATCH patterns become a
// query graph, the query graph is split into linear paths, and each
// connection of a path drives a streaming plan operation. Every
// connection is compiled into the context-free grammar of the PATH
// PATTERN declarations and answered through the multiple-source CFPQ
// index of the path pattern context: a relationship pattern as the
// one-step path that Figure 11's algebraic expression denotes, under the
// paper's name CondTraverse, and a path pattern as itself, under
// CFPQTraverse.
package plan

import (
	"fmt"
	"strings"

	"mscfpq/internal/cypher"
	"mscfpq/internal/grammar"
	"mscfpq/internal/graph"
)

// relPath is the one-step path a relationship pattern walks: a step
// along its type, or an alternation of steps along its types (Figure
// 11's E^a + E^b) or, untyped, along every edge label of g. Right to
// left it is applied inversely (Transpose(E^a)), and the labels of its
// destination become a trailing node check (· V^l) in compilePath.
func relPath(r cypher.RelPattern, g *graph.Graph) cypher.PathApply {
	types := r.Types
	if len(types) == 0 {
		types = g.EdgeLabels()
	}
	steps := make([]cypher.PathExpr, len(types))
	for i, t := range types {
		steps[i] = cypher.PERel{Type: t}
	}
	var e cypher.PathExpr = cypher.PEAlt{Alts: steps}
	if len(steps) == 1 {
		e = steps[0]
	}
	return cypher.PathApply{Expr: e, Inverse: r.Inverse}
}

// PatternsToGrammar compiles the PATH PATTERN declarations into a
// context-free grammar whose nonterminals are the pattern names:
// relationship steps become grammar.EdgeStep terminals, node checks
// grammar.NodeCheck terminals, references become nonterminals, and
// quantifiers introduce auxiliary nonterminals. The grammar feeds the
// multiple-source CFPQ index that answers the MATCH clause's
// connections, which compilePath adds to it.
func PatternsToGrammar(pats []cypher.NamedPathPattern) (*grammar.Grammar, error) {
	if len(pats) == 0 {
		return nil, fmt.Errorf("plan: no named path patterns")
	}
	c, err := newCompiler(pats)
	if err != nil {
		return nil, err
	}
	for _, p := range pats {
		if err := c.addAlternatives(p.Name, p.Expr); err != nil {
			return nil, err
		}
	}
	return grammar.New(pats[0].Name, c.prods)
}

// reversed is the suffix of the pattern X#r that matches the reversed
// paths of a declared X; '#' cannot occur in a declared name.
const reversed = "#r"

// compiler flattens path-pattern expressions into productions.
type compiler struct {
	decls map[string]cypher.PathExpr // referable patterns: the declared ones and the reversals compiled so far
	prods []grammar.Production
	fresh int
}

func newCompiler(pats []cypher.NamedPathPattern) (*compiler, error) {
	c := &compiler{decls: map[string]cypher.PathExpr{}}
	for _, p := range pats {
		if _, dup := c.decls[p.Name]; dup {
			return nil, fmt.Errorf("plan: duplicate path pattern %q", p.Name)
		}
		c.decls[p.Name] = p.Expr
	}
	return c, nil
}

func (c *compiler) freshNT(owner string) string {
	c.fresh++
	return fmt.Sprintf("%s#q%d", owner, c.fresh)
}

// addAlternatives adds the productions owner -> e, one per top-level
// alternative.
func (c *compiler) addAlternatives(owner string, e cypher.PathExpr) error {
	alts := []cypher.PathExpr{e}
	if alt, ok := e.(cypher.PEAlt); ok {
		alts = alt.Alts
	}
	for _, a := range alts {
		syms, err := c.toSymbols(owner, a)
		if err != nil {
			return err
		}
		c.prods = append(c.prods, grammar.Production{LHS: owner, RHS: syms})
	}
	return nil
}

// toSymbols flattens an expression into one right-hand side, introducing
// helper nonterminals for nested alternation and quantifiers.
func (c *compiler) toSymbols(owner string, e cypher.PathExpr) ([]grammar.Symbol, error) {
	switch v := e.(type) {
	case cypher.PESeq:
		var out []grammar.Symbol
		for _, part := range v.Parts {
			syms, err := c.toSymbols(owner, part)
			if err != nil {
				return nil, err
			}
			out = append(out, syms...)
		}
		return out, nil
	case cypher.PEAlt:
		nt := c.freshNT(owner)
		if err := c.addAlternatives(nt, v); err != nil {
			return nil, err
		}
		return []grammar.Symbol{grammar.N(nt)}, nil
	case cypher.PERel:
		label := v.Type
		if v.Inverse {
			label = grammar.InverseLabel(label)
		}
		return []grammar.Symbol{grammar.T(grammar.EdgeStep(label))}, nil
	case cypher.PENode:
		var out []grammar.Symbol
		for _, l := range v.Labels {
			out = append(out, grammar.T(grammar.NodeCheck(l)))
		}
		return out, nil
	case cypher.PERef:
		if err := c.declare(v.Name); err != nil {
			return nil, err
		}
		return []grammar.Symbol{grammar.N(v.Name)}, nil
	case cypher.PEStar:
		return c.quantify(owner, v.Sub, true, true)
	case cypher.PEPlus:
		return c.quantify(owner, v.Sub, false, true)
	case cypher.PEOpt:
		return c.quantify(owner, v.Sub, true, false)
	default:
		return nil, fmt.Errorf("plan: unsupported path expression %T", e)
	}
}

// quantify introduces the helper nonterminal nt of a quantifier over
// sub: nt -> eps where the empty path matches (e*, e?), nt -> inner where
// it does not (e+), and nt -> nt inner where sub repeats (e*, e+), else
// nt -> inner (e?). Recursing on the left, the helper is solved for the
// sources bound to it, and sub only for the vertices they reach.
func (c *compiler) quantify(owner string, sub cypher.PathExpr, empty, repeat bool) ([]grammar.Symbol, error) {
	nt := c.freshNT(owner)
	inner, err := c.toSymbols(nt, sub)
	if err != nil {
		return nil, err
	}
	first, second := inner, inner
	if empty {
		first = nil
	}
	if repeat {
		second = append([]grammar.Symbol{grammar.N(nt)}, inner...)
	}
	c.prods = append(c.prods, grammar.Production{LHS: nt, RHS: first}, grammar.Production{LHS: nt, RHS: second})
	return []grammar.Symbol{grammar.N(nt)}, nil
}

// declare checks that a referenced pattern exists. The first reference
// to X#r compiles the reversal of X's declaration under that name.
func (c *compiler) declare(name string) error {
	if _, ok := c.decls[name]; ok {
		return nil
	}
	base, isRev := strings.CutSuffix(name, reversed)
	d, ok := c.decls[base]
	if !isRev || !ok {
		return fmt.Errorf("plan: reference to undeclared path pattern %q", name)
	}
	rev := reversePath(d)
	c.decls[name] = rev
	return c.addAlternatives(name, rev)
}

// reversePath returns the expression whose paths are e's, walked
// backwards: sequences run in the opposite order, relationship steps
// flip direction, node checks and quantifiers stay, and a reference ~X
// becomes ~X#r, whose declaration is X's reversed.
func reversePath(e cypher.PathExpr) cypher.PathExpr {
	switch v := e.(type) {
	case cypher.PESeq:
		parts := make([]cypher.PathExpr, len(v.Parts))
		for i, p := range v.Parts {
			parts[len(parts)-1-i] = reversePath(p)
		}
		return cypher.PESeq{Parts: parts}
	case cypher.PEAlt:
		alts := make([]cypher.PathExpr, len(v.Alts))
		for i, a := range v.Alts {
			alts[i] = reversePath(a)
		}
		return cypher.PEAlt{Alts: alts}
	case cypher.PERel:
		v.Inverse = !v.Inverse
		return v
	case cypher.PERef:
		return cypher.PERef{Name: v.Name + reversed}
	case cypher.PEStar:
		return cypher.PEStar{Sub: reversePath(v.Sub)}
	case cypher.PEPlus:
		return cypher.PEPlus{Sub: reversePath(v.Sub)}
	case cypher.PEOpt:
		return cypher.PEOpt{Sub: reversePath(v.Sub)}
	default: // node checks read the same both ways
		return e
	}
}

// pathQuery is a MATCH connection compiled into the declared grammar:
// the traverse that executes it reads the rows of start, and has none
// to read when start is -1.
type pathQuery struct {
	rules *grammar.Grammar // the productions the connection adds; none for a bare reference
	w     *grammar.WCNF    // the declared WCNF, extended by rules
	start int
}

// String renders what the traverse solves: the added rules, or the
// referenced pattern.
func (p *pathQuery) String() string {
	switch {
	case p.start < 0:
		return "no path"
	case len(p.rules.Prods) == 0:
		return p.rules.Start
	}
	return strings.ReplaceAll(strings.TrimSuffix(p.rules.String(), "\n"), "\n", "; ")
}

// compilePath compiles a MATCH connection, with the labels of its
// destination node, into the context's declared grammar. A connection
// applied right to left is reversed first (reversePath), and the labels
// become node checks at its end. A bare reference to a declared pattern
// adds nothing: the traverse reads that pattern's rows of the index. An
// alternation of nothing (an untyped relationship on a graph without
// edges) matches no path. Anything else becomes the start nonterminal Q
// of productions that extend the declared WCNF (grammar.Extend), so the
// driver that solves Q passes its sources on to the patterns Q
// references.
func (ctx *PathCtx) compilePath(p cypher.PathApply, labels []string) (*pathQuery, error) {
	if alt, ok := p.Expr.(cypher.PEAlt); ok && len(alt.Alts) == 0 {
		return &pathQuery{w: ctx.idx.W, start: -1}, nil
	}
	e := p.Expr
	if p.Inverse {
		e = reversePath(e)
	}
	if len(labels) > 0 {
		e = cypher.PESeq{Parts: []cypher.PathExpr{e, cypher.PENode{Labels: labels}}}
	}
	c, err := newCompiler(ctx.pats)
	if err != nil {
		return nil, err
	}
	var start string
	if ref, ok := e.(cypher.PERef); ok {
		start = ref.Name
		err = c.declare(start)
	} else {
		start = "Q"
		for c.decls[start] != nil {
			start += "'"
		}
		err = c.addAlternatives(start, e)
	}
	if err != nil {
		return nil, err
	}
	q := &pathQuery{rules: &grammar.Grammar{Start: start, Prods: c.prods}, w: ctx.idx.W}
	if len(c.prods) > 0 {
		if q.w, err = grammar.Extend(q.w, q.rules); err != nil {
			return nil, err
		}
	}
	q.start = q.w.NontermID(start)
	return q, nil
}
