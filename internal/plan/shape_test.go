package plan

import (
	"testing"

	"mscfpq/internal/grammar"
	"mscfpq/internal/graph"
)

// TestDeclarationGrammarsPinned pins, as text, the grammars that the
// declarations of the wire benchmark's G1 and G2 workloads compile to,
// before and after normalization. Their sequences hold references, which
// stay flat where they sit, so the left fold leaves them as they have
// always compiled.
func TestDeclarationGrammarsPinned(t *testing.T) {
	for _, c := range []struct {
		decl, grammar, wcnf string
	}{
		{
			"PATH PATTERN S = ()-/ [<:subClassOf ~S :subClassOf] | [<:type ~S :type] | [<:subClassOf :subClassOf] | [<:type :type] /->() ",
			"S -> :subClassOf_r S :subClassOf | :type_r S :type | :subClassOf_r :subClassOf | :type_r :type\n",
			"T#:subClassOf_r -> :subClassOf_r\nT#:subClassOf -> :subClassOf\nT#:type_r -> :type_r\nT#:type -> :type\n" +
				"S -> T#:subClassOf_r T#:subClassOf | T#:subClassOf_r S#0 | T#:type_r T#:type | T#:type_r S#1\n" +
				"S#0 -> S T#:subClassOf\nS#1 -> S T#:type\n",
		},
		{
			"PATH PATTERN S = ()-/ [<:subClassOf ~S :subClassOf] | [:subClassOf] /->() ",
			"S -> :subClassOf_r S :subClassOf | :subClassOf\n",
			"S -> :subClassOf | T#:subClassOf_r S#0\nT#:subClassOf_r -> :subClassOf_r\nT#:subClassOf -> :subClassOf\nS#0 -> S T#:subClassOf\n",
		},
	} {
		q := mustParseQuery(t, c.decl+"MATCH (v)-/ ~S /->(to) RETURN count(to)")
		cf, err := PatternsToGrammar(q.PathPatterns)
		if err != nil {
			t.Fatal(err)
		}
		w, err := grammar.ToWCNF(cf)
		if err != nil {
			t.Fatal(err)
		}
		if got := cf.String(); got != c.grammar {
			t.Errorf("%s compiles to\n%s want\n%s", c.decl, got, c.grammar)
		}
		if got := w.String(); got != c.wcnf {
			t.Errorf("%s normalizes to\n%s want\n%s", c.decl, got, c.wcnf)
		}
	}
}

// TestRegularShapesSolveHelpersAtSources pins the left fold: after a
// regular MATCH from one source, no nonterminal with a binary rule has
// processed a source other than the query's. A rule A -> B C solves C
// at every vertex B reaches, so a sequence compiled as P -> N1 N2 would
// solve N2's rule at the vertices N1 reaches. The path is declared, so
// its helpers are the index's own nonterminals.
func TestRegularShapesSolveHelpersAtSources(t *testing.T) {
	// 0 -a-> 1 -a-> 2 -b-> 3 -b-> 4 -c-> 5, 1 -c-> 3, x on 2 and 4.
	g := graph.New(6)
	for _, e := range []struct {
		src   int
		label string
		dst   int
	}{{0, "a", 1}, {1, "a", 2}, {2, "b", 3}, {3, "b", 4}, {4, "c", 5}, {1, "c", 3}} {
		g.AddEdge(e.src, e.label, e.dst)
	}
	g.AddVertexLabel(2, "x")
	g.AddVertexLabel(4, "x")
	for _, path := range []string{
		`[:a]* [:b]*`,
		`[:a | :c]* :b`,
		`[:a]+ [:b]+`,
		`:a :a :b :b`,
		`:a [:a | :c] (:x) [:b :b]* :c?`,
		`[:a :a]? [[:b]+ | (:x)] <:c`,
	} {
		q := mustParseQuery(t, `PATH PATTERN R = ()-/ `+path+` /->() MATCH (v)-/ ~R /->(to) WHERE id(v) = 0 RETURN v, to`)
		ctx, err := NewPathCtx(g, q.PathPatterns)
		if err != nil {
			t.Fatal(err)
		}
		p, err := BuildWithCtx(q, NewEnv(g, nil, nil), ctx)
		if err != nil {
			t.Fatal(err)
		}
		rs, err := p.Execute()
		if err != nil {
			t.Fatal(err)
		}
		if len(rs.Rows()) == 0 {
			t.Fatalf("%s: no rows, so nothing was solved", path)
		}
		w := ctx.idx.W
		for _, r := range w.BinRules {
			if got := ctx.idx.ProcessedSources(r.A).Ints(); len(got) > 1 || len(got) == 1 && got[0] != 0 {
				t.Errorf("%s: %s has binary rules and processed sources %v, want only 0\n%s", path, w.Nonterms[r.A], got, w)
			}
		}
	}
}
