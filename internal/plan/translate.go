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
	"slices"
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
// quantifiers, and alternations after a prefix, introduce helper
// nonterminals (fold). The grammar feeds the multiple-source CFPQ index
// that answers the MATCH clause's connections, which compilePath adds
// to it.
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

// addAlternatives adds the productions owner -> e, one per right-hand
// side e folds into.
func (c *compiler) addAlternatives(owner string, e cypher.PathExpr) error {
	rhss, err := c.fold(owner, [][]grammar.Symbol{nil}, e)
	if err != nil {
		return err
	}
	if len(rhss) == 1 && len(rhss[0]) == 1 && !rhss[0][0].Term && !c.isRef(rhss[0][0]) {
		// e folded into one helper, as e* does: owner becomes it, where a
		// unit rule owner -> H would copy H's rules for the driver to
		// solve twice.
		h := rhss[0][0].Name
		for i := range c.prods {
			if c.prods[i].LHS == h {
				c.prods[i].LHS = owner
			}
			for j, s := range c.prods[i].RHS {
				if s.Name == h && !s.Term {
					c.prods[i].RHS[j].Name = owner
				}
			}
		}
		return nil
	}
	c.addRules(owner, rhss)
	return nil
}

func (c *compiler) addRules(lhs string, rhss [][]grammar.Symbol) {
	for _, rhs := range rhss {
		c.prods = append(c.prods, grammar.Production{LHS: lhs, RHS: rhs})
	}
}

// fold appends e to a prefix, the right-hand sides that match the part
// of a sequence before e, and returns those that match it with e. For a
// rule A -> B C the driver solves C at every vertex B reaches, so the
// fold goes left, and no helper after the first symbol of a sequence is
// solved at mid vertices:
//   - e* and e+ become a helper whose rules take the prefix p
//     (quantify): H -> p | H e;
//   - an alternation distributes: p (a | b) folds to p a | p b, and
//     p e? to p | p e, except that single steps and node checks in
//     alternation stay one helper (terms);
//   - a step, a node check and a reference join the prefix (push).
//
// A prefix that an alternation copies is made one symbol first (join).
// References stay nonterminals in place: their rows at mid vertices are
// what a context-free query needs.
func (c *compiler) fold(owner string, prefix [][]grammar.Symbol, e cypher.PathExpr) ([][]grammar.Symbol, error) {
	var err error
	switch v := e.(type) {
	case cypher.PESeq:
		for _, part := range v.Parts {
			if prefix, err = c.fold(owner, prefix, part); err != nil {
				return nil, err
			}
		}
		return prefix, nil
	case cypher.PEAlt:
		if ts := terms(v); ts != nil && !(len(prefix) == 1 && len(prefix[0]) == 0) {
			// Steps and node checks in alternation are one helper with
			// terminal rules alone: its rows at the vertices the prefix
			// reaches are label rows, which cost no product.
			h := c.freshNT(owner)
			c.addRules(h, ts)
			return c.push(owner, prefix, grammar.N(h)), nil
		}
		prefix = c.join(owner, prefix)
		var out [][]grammar.Symbol
		for _, a := range v.Alts {
			rhss, err := c.fold(owner, prefix, a)
			if err != nil {
				return nil, err
			}
			out = append(out, rhss...)
		}
		return out, nil
	case cypher.PERel:
		return c.push(owner, prefix, step(v)), nil
	case cypher.PENode:
		for _, l := range v.Labels {
			prefix = c.push(owner, prefix, grammar.T(grammar.NodeCheck(l)))
		}
		return prefix, nil
	case cypher.PERef:
		if err := c.declare(v.Name); err != nil {
			return nil, err
		}
		return c.push(owner, prefix, grammar.N(v.Name)), nil
	case cypher.PEStar:
		return c.quantify(owner, prefix, v.Sub, false)
	case cypher.PEPlus:
		return c.quantify(owner, prefix, v.Sub, true)
	case cypher.PEOpt:
		// p e? is the alternation p | p e.
		prefix = c.join(owner, prefix)
		rhss, err := c.fold(owner, prefix, v.Sub)
		if err != nil {
			return nil, err
		}
		return append(slices.Clip(prefix), rhss...), nil
	default:
		return nil, fmt.Errorf("plan: unsupported path expression %T", e)
	}
}

// quantify folds e* or e+ onto the prefix p as a helper H that
// recurses on the left: H -> p | H e, so that H matches p e*, and the
// right-hand sides H e match p e+. Either way e is folded once.
func (c *compiler) quantify(owner string, p [][]grammar.Symbol, e cypher.PathExpr, plus bool) ([][]grammar.Symbol, error) {
	h := c.freshNT(owner)
	loop, err := c.fold(owner, [][]grammar.Symbol{{grammar.N(h)}}, e)
	if err != nil {
		return nil, err
	}
	c.addRules(h, p)
	c.addRules(h, loop)
	if plus {
		return loop, nil
	}
	return [][]grammar.Symbol{{grammar.N(h)}}, nil
}

// push appends the symbol s to a prefix. A prefix of two symbols or more
// is made one symbol first (join), so that a run of steps folds left
// too, unless it ends in a reference: such a prefix stays flat, as
// [<:a ~S :a] has always compiled, since the reference is solved at the
// mid vertex anyway.
func (c *compiler) push(owner string, prefix [][]grammar.Symbol, s grammar.Symbol) [][]grammar.Symbol {
	if len(prefix) != 1 || len(prefix[0]) >= 2 && !c.isRef(prefix[0][len(prefix[0])-1]) {
		prefix = c.join(owner, prefix)
	}
	if len(prefix) == 0 {
		return nil
	}
	return [][]grammar.Symbol{append(slices.Clip(prefix[0]), s)}
}

// isRef reports whether s references a declared pattern or a reversal.
func (c *compiler) isRef(s grammar.Symbol) bool { return !s.Term && c.decls[s.Name] != nil }

// step is the terminal of a relationship step.
func step(r cypher.PERel) grammar.Symbol {
	label := r.Type
	if r.Inverse {
		label = grammar.InverseLabel(label)
	}
	return grammar.T(grammar.EdgeStep(label))
}

// terms returns the terminals of a step, of a node check of one label,
// or of an alternation of them, each as a right-hand side, and nil for
// any other expression.
func terms(e cypher.PathExpr) [][]grammar.Symbol {
	switch v := e.(type) {
	case cypher.PERel:
		return [][]grammar.Symbol{{step(v)}}
	case cypher.PENode:
		if len(v.Labels) == 1 {
			return [][]grammar.Symbol{{grammar.T(grammar.NodeCheck(v.Labels[0]))}}
		}
	case cypher.PEAlt:
		var out [][]grammar.Symbol
		for _, a := range v.Alts {
			ts := terms(a)
			if ts == nil {
				return nil
			}
			out = append(out, ts...)
		}
		return out
	}
	return nil
}

// join makes a prefix one symbol, a helper H -> p1 | p2 | ..., unless it
// is one right-hand side of at most one symbol already.
func (c *compiler) join(owner string, prefix [][]grammar.Symbol) [][]grammar.Symbol {
	if len(prefix) == 0 || len(prefix) == 1 && len(prefix[0]) <= 1 {
		return prefix
	}
	h := c.freshNT(owner)
	c.addRules(h, prefix)
	return [][]grammar.Symbol{{grammar.N(h)}}
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
