package oracle

import (
	"fmt"
	"strings"

	"mscfpq/internal/cypher"
	"mscfpq/internal/graph"
)

// relation is a set of vertex pairs kept as one successor set per
// vertex, the shape composition and closure walk.
type relation []map[int]bool

func (r relation) add(i, j int) {
	if r[i] == nil {
		r[i] = map[int]bool{}
	}
	r[i][j] = true
}

func (r relation) size() int {
	n := 0
	for _, row := range r {
		n += len(row)
	}
	return n
}

// Pattern returns the sorted pairs (i, j) of g joined by a path that the
// path-pattern expression e matches; the query-language differential
// check composes MATCH rows from it. It reads the AST as a denotation:
// a sequence composes, an alternation unites, * and + close (* and ?
// adding every vertex to itself), a relationship step :x takes the x
// edges — backwards for <:x and for the paper's inverse spelling :x_r —
// and a node check keeps the vertices that carry all of its labels:
// edges labeled like it play no part. The named patterns of decls denote
// the least fixpoint of their declarations, reached by re-evaluating
// every declaration from empty relations until none grows. Nothing here
// is shared with the planner or the grammar package.
func Pattern(g *graph.Graph, decls []cypher.NamedPathPattern, e cypher.PathExpr) ([][2]int, error) {
	p := &patternEval{g: g, env: map[string]relation{}}
	for _, d := range decls {
		p.env[d.Name] = p.empty()
	}
	for grew := true; grew; {
		grew = false
		next := map[string]relation{}
		for _, d := range decls {
			r, err := p.eval(d.Expr)
			if err != nil {
				return nil, fmt.Errorf("oracle: pattern %s: %w", d.Name, err)
			}
			// Every operator is monotone, so r contains the previous
			// relation: a larger size is the only way to differ.
			grew = grew || r.size() > p.env[d.Name].size()
			next[d.Name] = r
		}
		p.env = next
	}
	r, err := p.eval(e)
	if err != nil {
		return nil, fmt.Errorf("oracle: %w", err)
	}
	var out [][2]int
	for i, row := range r {
		for j := range row {
			out = append(out, [2]int{i, j})
		}
	}
	SortPairs(out)
	return out, nil
}

type patternEval struct {
	g   *graph.Graph
	env map[string]relation // the current relation of every named pattern
}

func (p *patternEval) empty() relation { return make(relation, p.g.NumVertices()) }

func (p *patternEval) identity() relation {
	r := p.empty()
	for v := range r {
		r.add(v, v)
	}
	return r
}

func (p *patternEval) eval(e cypher.PathExpr) (relation, error) {
	switch v := e.(type) {
	case cypher.PESeq:
		out := p.identity()
		for _, part := range v.Parts {
			r, err := p.eval(part)
			if err != nil {
				return nil, err
			}
			out = p.compose(out, r)
		}
		return out, nil
	case cypher.PEAlt:
		out := p.empty()
		for _, alt := range v.Alts {
			r, err := p.eval(alt)
			if err != nil {
				return nil, err
			}
			p.unite(out, r)
		}
		return out, nil
	case cypher.PERel:
		return p.step(v.Type, v.Inverse), nil
	case cypher.PENode:
		return p.check(v.Labels), nil
	case cypher.PERef:
		r, ok := p.env[v.Name]
		if !ok {
			return nil, fmt.Errorf("reference to undeclared pattern %q", v.Name)
		}
		return r, nil
	case cypher.PEStar:
		r, err := p.eval(v.Sub)
		if err != nil {
			return nil, err
		}
		out := p.closure(r)
		p.unite(out, p.identity())
		return out, nil
	case cypher.PEPlus:
		r, err := p.eval(v.Sub)
		if err != nil {
			return nil, err
		}
		return p.closure(r), nil
	case cypher.PEOpt:
		r, err := p.eval(v.Sub)
		if err != nil {
			return nil, err
		}
		out := p.identity()
		p.unite(out, r)
		return out, nil
	default:
		return nil, fmt.Errorf("unsupported path expression %T", e)
	}
}

// step returns the pairs one edge labeled label joins: backwards when
// back is set, and flipped once more for the paper's inverse spelling
// "x_r".
func (p *patternEval) step(label string, back bool) relation {
	if base, ok := strings.CutSuffix(label, "_r"); ok {
		label, back = base, !back
	}
	out := p.empty()
	p.g.Edges(func(src int, l string, dst int) bool {
		if l == label {
			if back {
				out.add(dst, src)
			} else {
				out.add(src, dst)
			}
		}
		return true
	})
	return out
}

// check returns the pairs (v, v) of the vertices that carry every one
// of labels.
func (p *patternEval) check(labels []string) relation {
	out := p.empty()
	for u := range out {
		keep := true
		for _, l := range labels {
			keep = keep && p.g.HasVertexLabel(u, l)
		}
		if keep {
			out.add(u, u)
		}
	}
	return out
}

// compose returns a;b: the pairs (i, j) with (i, k) in a and (k, j) in b.
func (p *patternEval) compose(a, b relation) relation {
	out := p.empty()
	for i, row := range a {
		for k := range row {
			for j := range b[k] {
				out.add(i, j)
			}
		}
	}
	return out
}

// unite adds b's pairs to a.
func (p *patternEval) unite(a, b relation) {
	for i, row := range b {
		for j := range row {
			a.add(i, j)
		}
	}
}

// closure returns r+, the pairs joined by one or more r steps: each
// round extends only the pairs the previous round found.
func (p *patternEval) closure(r relation) relation {
	out := p.empty()
	p.unite(out, r)
	for last := r; last.size() > 0; {
		next := p.empty()
		for i, row := range p.compose(last, r) {
			for j := range row {
				if !out[i][j] {
					out.add(i, j)
					next.add(i, j)
				}
			}
		}
		last = next
	}
	return out
}
