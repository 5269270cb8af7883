// Package oracle holds slow-but-obviously-correct reference evaluators
// for the differential test harness (see TESTING.md). The oracles work
// directly on edge lists with plain Go maps and share no code with the
// production linear-algebra kernels in internal/matrix, so an agreement
// between an engine and an oracle is evidence of correctness rather
// than of a shared bug.
//
// The CFPQ oracle is the CYK-style closure of Azimov's relation spelled
// out on triples: a fact (A, i, j) means some path from i to j spells a
// word derivable from nonterminal A. The RPQ oracle and the path-pattern
// oracle read their expressions as relations over the vertices, built
// from the edges with composition, union and closure.
package oracle

import (
	"fmt"
	"sort"

	"mscfpq/internal/grammar"
	"mscfpq/internal/graph"
	"mscfpq/internal/rpq"
)

// Relation is the oracle's answer to a CFPQ: one fact set per grammar
// nonterminal.
type Relation struct {
	w     *grammar.WCNF
	n     int
	facts []map[[2]int]bool // per nonterminal: set of (i, j)
}

// Has reports whether fact (a, i, j) holds.
func (r *Relation) Has(a, i, j int) bool { return r.facts[a][[2]int{i, j}] }

// Pairs returns the sorted fact pairs of nonterminal a.
func (r *Relation) Pairs(a int) [][2]int {
	out := make([][2]int, 0, len(r.facts[a]))
	for p := range r.facts[a] {
		out = append(out, p)
	}
	SortPairs(out)
	return out
}

// StartPairs returns the sorted pairs of the start nonterminal — the
// all-pairs CFPQ answer.
func (r *Relation) StartPairs() [][2]int { return r.Pairs(r.w.Start) }

// StartPairsFrom returns the start-nonterminal pairs whose source lies
// in sources — the multiple-source CFPQ answer the paper's Algorithm 2
// must reproduce. Sources may repeat or lie outside the vertex range;
// such entries cannot contribute pairs and are ignored.
func (r *Relation) StartPairsFrom(sources []int) [][2]int {
	keep := map[int]bool{}
	for _, s := range sources {
		if s >= 0 && s < r.n {
			keep[s] = true
		}
	}
	var out [][2]int
	for p := range r.facts[r.w.Start] {
		if keep[p[0]] {
			out = append(out, p)
		}
	}
	SortPairs(out)
	return out
}

// CFPQ computes the full context-free relations of w over g by naive
// fixpoint iteration on explicit triples. Each pass scans every binary
// rule against the complete current fact sets and buffers additions, so
// no pass mutates a set it is iterating; the loop stops after a pass
// that adds nothing. Exponentially clearer, polynomially slower than
// the production engines — intended for small generated instances only.
func CFPQ(g *graph.Graph, w *grammar.WCNF) *Relation {
	n := g.NumVertices()
	r := &Relation{w: w, n: n, facts: make([]map[[2]int]bool, w.NumNonterms())}
	// succ[a][i] is the set of j with (a, i, j), the index the closure
	// joins through.
	succ := make([]map[int]map[int]bool, w.NumNonterms())
	for a := range r.facts {
		r.facts[a] = map[[2]int]bool{}
		succ[a] = map[int]map[int]bool{}
	}
	add := func(a, i, j int) bool {
		p := [2]int{i, j}
		if r.facts[a][p] {
			return false
		}
		r.facts[a][p] = true
		if succ[a][i] == nil {
			succ[a][i] = map[int]bool{}
		}
		succ[a][i][j] = true
		return true
	}

	// Simple rules A -> t: edges labeled t (reversed base edges for an
	// inverse label t = "x_r"), and self pairs for vertices labeled t —
	// only the edges for a relationship step ":t" of a compiled path
	// pattern, only the vertices for a node check "(:t)".
	for _, rule := range w.TermRules {
		name, vertex := grammar.TermLabels(w.Terms[rule.Term])
		base, inverse := name, false
		if grammar.IsInverseLabel(name) {
			base, inverse = grammar.InverseLabel(name), true
		}
		g.Edges(func(src int, label string, dst int) bool {
			if label == base {
				if inverse {
					add(rule.A, dst, src)
				} else {
					add(rule.A, src, dst)
				}
			}
			return true
		})
		for _, v := range g.VertexSet(vertex).Ints() {
			add(rule.A, v, v)
		}
	}
	// Eps rules: every vertex relates to itself.
	for a, nullable := range w.Nullable {
		if nullable {
			for v := 0; v < n; v++ {
				add(a, v, v)
			}
		}
	}

	// Closure over the binary rules.
	type triple struct{ a, i, j int }
	for changed := true; changed; {
		changed = false
		var buf []triple
		for _, rule := range w.BinRules {
			for i, ks := range succ[rule.B] {
				for k := range ks {
					for j := range succ[rule.C][k] {
						if !r.facts[rule.A][[2]int{i, j}] {
							//lint:ignore detrange buf is folded into the facts sets below; discovery order never reaches output
							buf = append(buf, triple{rule.A, i, j})
						}
					}
				}
			}
		}
		for _, t := range buf {
			if add(t.a, t.i, t.j) {
				changed = true
			}
		}
	}
	return r
}

// RPQ answers a multiple-source regular path query: the pairs (s, v),
// s in sources, such that some path from s to v spells a word of the
// regex's language. It reads the regex AST as a denotation, with the
// relation algebra of Pattern: concatenation composes, alternation
// unites, * and + close (* and ? adding every vertex to itself), and a
// label l takes the l edges, backwards for an inverse label "x_r", and,
// as a zero-length step, the vertices labeled l. Out-of-range or
// duplicate sources are ignored.
func RPQ(g *graph.Graph, re rpq.Node, sources []int) [][2]int {
	p := &patternEval{g: g}
	r := p.regex(re)
	var out [][2]int
	done := map[int]bool{}
	for _, s := range sources {
		if s < 0 || s >= len(r) || done[s] {
			continue
		}
		done[s] = true
		for v := range r[s] {
			out = append(out, [2]int{s, v})
		}
	}
	SortPairs(out)
	return out
}

func (p *patternEval) regex(re rpq.Node) relation {
	switch v := re.(type) {
	case rpq.Label:
		out := p.step(v.Name, false)
		p.unite(out, p.check([]string{v.Name}))
		return out
	case rpq.Concat:
		return p.compose(p.regex(v.Left), p.regex(v.Right))
	case rpq.Alt:
		out := p.regex(v.Left)
		p.unite(out, p.regex(v.Right))
		return out
	case rpq.Star:
		out := p.closure(p.regex(v.Sub))
		p.unite(out, p.identity())
		return out
	case rpq.Plus:
		return p.closure(p.regex(v.Sub))
	case rpq.Opt:
		out := p.identity()
		p.unite(out, p.regex(v.Sub))
		return out
	default:
		panic(fmt.Sprintf("oracle: unknown regex node %T", re))
	}
}

// SortPairs orders pairs lexicographically, the canonical form the
// differential suite compares answers in.
func SortPairs(ps [][2]int) {
	sort.Slice(ps, func(i, j int) bool {
		if ps[i][0] != ps[j][0] {
			return ps[i][0] < ps[j][0]
		}
		return ps[i][1] < ps[j][1]
	})
}
