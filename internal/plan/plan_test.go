package plan

import (
	"sort"
	"strings"
	"testing"

	"mscfpq/internal/cypher"
	"mscfpq/internal/grammar"
	"mscfpq/internal/graph"
)

// paperGraph is the example graph D of Figure 1 (0-based ids).
func paperGraph() *graph.Graph {
	g := graph.New(6)
	g.AddEdge(0, "a", 1)
	g.AddEdge(1, "a", 2)
	g.AddEdge(1, "b", 2)
	g.AddEdge(1, "b", 5)
	g.AddEdge(2, "d", 4)
	g.AddEdge(3, "c", 2)
	g.AddEdge(4, "c", 3)
	g.AddEdge(4, "d", 5)
	g.AddEdge(5, "d", 4)
	g.AddVertexLabel(0, "x")
	g.AddVertexLabel(2, "x")
	g.AddVertexLabel(2, "y")
	g.AddVertexLabel(5, "y")
	return g
}

func runQuery(t *testing.T, g *graph.Graph, src string) *ResultSet {
	t.Helper()
	q, err := cypher.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	env := NewEnv(g, nil, nil)
	p, err := Build(q, env)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	rs, err := p.Execute()
	if err != nil {
		t.Fatalf("execute: %v", err)
	}
	return rs
}

func sortedRows(rs *ResultSet) [][]int64 {
	rows := append([][]int64(nil), rs.Rows()...)
	sort.Slice(rows, func(i, j int) bool {
		for k := range rows[i] {
			if rows[i][k] != rows[j][k] {
				return rows[i][k] < rows[j][k]
			}
		}
		return false
	})
	return rows
}

func expectRows(t *testing.T, rs *ResultSet, want [][]int64) {
	t.Helper()
	got := sortedRows(rs)
	if len(got) != len(want) {
		t.Fatalf("rows = %v, want %v", got, want)
	}
	for i := range want {
		for k := range want[i] {
			if got[i][k] != want[i][k] {
				t.Fatalf("rows = %v, want %v", got, want)
			}
		}
	}
}

func TestSimpleRelTraverse(t *testing.T) {
	rs := runQuery(t, paperGraph(), `MATCH (v)-[:a]->(u) RETURN v, u`)
	expectRows(t, rs, [][]int64{{0, 1}, {1, 2}})
}

func TestInverseRelTraverse(t *testing.T) {
	rs := runQuery(t, paperGraph(), `MATCH (v)<-[:c]-(u) RETURN v, u`)
	// v <-c- u means u -c-> v: (2,3) and (3,4).
	expectRows(t, rs, [][]int64{{2, 3}, {3, 4}})
}

func TestLabelScanRestrictsSources(t *testing.T) {
	rs := runQuery(t, paperGraph(), `MATCH (v:x)-[:a]->(u) RETURN v, u`)
	// x vertices are {0,2}; only 0 has an a-edge.
	expectRows(t, rs, [][]int64{{0, 1}})
}

func TestRelAlternationAndAnyEdge(t *testing.T) {
	rs := runQuery(t, paperGraph(), `MATCH (v)-[:a|b]->(u) RETURN v, u`)
	expectRows(t, rs, [][]int64{{0, 1}, {1, 2}, {1, 5}})
	any := runQuery(t, paperGraph(), `MATCH (v)-->(u) RETURN v, u`)
	// Relation semantics are set-based: (1,2) carries labels a and b but
	// is one pair, so 9 labeled edges yield 8 distinct pairs.
	if len(any.Rows()) != 8 {
		t.Fatalf("any-edge rows = %d, want 8", len(any.Rows()))
	}
}

func TestNamedPathPatternCND(t *testing.T) {
	// L(S) = { c^n y d^n }: relation {(3,4), (4,5)} on the paper graph.
	rs := runQuery(t, paperGraph(), `
		PATH PATTERN S = ()-/ [:c ~S :d] | [:c (:y) :d] /->()
		MATCH (v)-/ ~S /->(to)
		RETURN v, to`)
	expectRows(t, rs, [][]int64{{3, 4}, {4, 5}})
}

func TestListing7EndToEnd(t *testing.T) {
	// The paper's running example; its walk-through reaches S-sources
	// {3,6} (1-based) where no S-path starts, so the result is empty —
	// the machinery must still execute every stage without error.
	rs := runQuery(t, paperGraph(), `
		PATH PATTERN S = ()-/ [:c ~S :d] | [:c (:y) :d] /->()
		MATCH (v:x)-[:a]->()-/ :b ~S /->(to)
		RETURN v, to`)
	if len(rs.Rows()) != 0 {
		t.Fatalf("expected empty result, got %v", rs.Rows())
	}
}

func TestAnBnNamedPattern(t *testing.T) {
	// Two cycles sharing vertex 0: a-cycle length 2, b-cycle length 3.
	g := graph.New(4)
	g.AddEdge(0, "a", 1)
	g.AddEdge(1, "a", 0)
	g.AddEdge(0, "b", 2)
	g.AddEdge(2, "b", 3)
	g.AddEdge(3, "b", 0)
	rs := runQuery(t, g, `
		PATH PATTERN S = ()-/ [:a ~S :b] | [:a :b] /->()
		MATCH (v)-/ ~S /->(to)
		WHERE id(v) = 0
		RETURN v, to`)
	found := false
	for _, row := range rs.Rows() {
		if row[0] == 0 && row[1] == 0 {
			found = true
		}
	}
	if !found {
		t.Fatalf("expected (0,0) in %v", rs.Rows())
	}
}

func TestQuantifiersPlus(t *testing.T) {
	g := graph.New(4)
	g.AddEdge(0, "a", 1)
	g.AddEdge(1, "a", 2)
	g.AddEdge(2, "a", 3)
	rs := runQuery(t, g, `MATCH (v)-/ [:a]+ /->(u) WHERE id(v) = 0 RETURN v, u`)
	expectRows(t, rs, [][]int64{{0, 1}, {0, 2}, {0, 3}})
	star := runQuery(t, g, `MATCH (v)-/ [:a]* /->(u) WHERE id(v) = 0 RETURN v, u`)
	expectRows(t, star, [][]int64{{0, 0}, {0, 1}, {0, 2}, {0, 3}})
	opt := runQuery(t, g, `MATCH (v)-/ [:a]? /->(u) WHERE id(v) = 0 RETURN v, u`)
	expectRows(t, opt, [][]int64{{0, 0}, {0, 1}})
}

func TestWhereIDInFilters(t *testing.T) {
	rs := runQuery(t, paperGraph(), `MATCH (v)-[:d]->(u) WHERE id(v) IN [2, 5] RETURN v, u`)
	expectRows(t, rs, [][]int64{{2, 4}, {5, 4}})
}

func TestWhereLabelPredicate(t *testing.T) {
	rs := runQuery(t, paperGraph(), `MATCH (v)-[:b]->(u) WHERE u:y RETURN v, u`)
	expectRows(t, rs, [][]int64{{1, 2}, {1, 5}})
}

func TestMultiPatternJoin(t *testing.T) {
	rs := runQuery(t, paperGraph(), `MATCH (v)-[:a]->(u), (u)-[:b]->(w) RETURN v, u, w`)
	expectRows(t, rs, [][]int64{{0, 1, 2}, {0, 1, 5}})
}

func TestDestinationLabelFolded(t *testing.T) {
	rs := runQuery(t, paperGraph(), `MATCH (v)-[:b]->(u:y) RETURN v, u`)
	expectRows(t, rs, [][]int64{{1, 2}, {1, 5}})
	rs = runQuery(t, paperGraph(), `MATCH (v)-[:a]->(u:y) RETURN v, u`)
	expectRows(t, rs, [][]int64{{1, 2}})
}

func TestLimit(t *testing.T) {
	rs := runQuery(t, paperGraph(), `MATCH (v)-->(u) RETURN v LIMIT 3`)
	if len(rs.Rows()) != 3 {
		t.Fatalf("limit ignored: %d rows", len(rs.Rows()))
	}
}

func TestBoundEndpointFilter(t *testing.T) {
	// Cycle pattern: the d-edges 4->5 and 5->4 close on each other.
	rs := runQuery(t, paperGraph(), `MATCH (v)-[:d]->(u)-[:d]->(v) RETURN v, u`)
	expectRows(t, rs, [][]int64{{4, 5}, {5, 4}})
}

func TestTraverseMultipleBatches(t *testing.T) {
	// More scan records than one traverse batch (1024) exercises the
	// refill path; every vertex has exactly one a-successor.
	const n = 2600
	g := graph.New(n)
	for i := 0; i < n-1; i++ {
		g.AddEdge(i, "a", i+1)
	}
	rs := runQuery(t, g, `MATCH (v)-[:a]->(u) RETURN count(*)`)
	if len(rs.Rows()) != 1 || rs.Rows()[0][0] != n-1 {
		t.Fatalf("count = %v, want %d", rs.Rows(), n-1)
	}
	// Path-pattern flavour across batches.
	rs = runQuery(t, g, `MATCH (v)-/ [:a]? /->(u) RETURN count(*)`)
	if len(rs.Rows()) != 1 || rs.Rows()[0][0] != int64(n+n-1) {
		t.Fatalf("opt count = %v, want %d", rs.Rows(), n+n-1)
	}
}

func TestStandaloneNodeScan(t *testing.T) {
	rs := runQuery(t, paperGraph(), `MATCH (v) RETURN v`)
	if len(rs.Rows()) != 6 {
		t.Fatalf("rows = %d, want 6", len(rs.Rows()))
	}
	rs = runQuery(t, paperGraph(), `MATCH (v:y) RETURN v`)
	expectRows(t, rs, [][]int64{{2}, {5}})
}

func TestMultiLabelNode(t *testing.T) {
	// Vertex 2 carries both x and y; vertex 0 only x, vertex 5 only y.
	rs := runQuery(t, paperGraph(), `MATCH (v:x:y) RETURN v`)
	expectRows(t, rs, [][]int64{{2}})
}

func TestSharedVarAcrossPatternsMergesConstraints(t *testing.T) {
	// b appears unlabeled in the first pattern and labeled in the
	// second; the query graph merges the constraint.
	rs := runQuery(t, paperGraph(), `MATCH (v)-[:b]->(u), (u:y)-[:d]->(w) RETURN v, u, w`)
	expectRows(t, rs, [][]int64{{1, 2, 4}, {1, 5, 4}})
}

func TestCartesianPatterns(t *testing.T) {
	rs := runQuery(t, paperGraph(), `MATCH (v:x), (u:y) RETURN v, u`)
	if len(rs.Rows()) != 4 { // {0,2} x {2,5}
		t.Fatalf("rows = %v", rs.Rows())
	}
}

func TestChainOrientationBySelectivity(t *testing.T) {
	// The filter sits on the destination: the planner must scan from u
	// and traverse the relation backwards.
	q := mustParseQuery(t, `MATCH (v)-[:a]->(u) WHERE id(u) = 2 RETURN v, u`)
	env := NewEnv(paperGraph(), nil, nil)
	p, err := Build(q, env)
	if err != nil {
		t.Fatal(err)
	}
	explain := p.Explain()
	// u has slot 1; the scan must seek it, and the traverse must invert.
	if !strings.Contains(explain, "NodeByIdSeek(slot=1, ids=1)") || strings.Contains(explain, "Filter") {
		t.Fatalf("scan not reoriented:\n%s", explain)
	}
	if !strings.Contains(explain, "CondTraverse(from=1, to=0, Q -> :a_r)") {
		t.Fatalf("traverse not inverted:\n%s", explain)
	}
	rs, err := p.Execute()
	if err != nil {
		t.Fatal(err)
	}
	expectRows(t, rs, [][]int64{{1, 2}})
}

func TestChainOrientationKeepsForwardWhenSourceSelective(t *testing.T) {
	q := mustParseQuery(t, `MATCH (v)-[:a]->(u) WHERE id(v) = 0 RETURN v, u`)
	p, err := Build(q, NewEnv(paperGraph(), nil, nil))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(p.Explain(), "NodeByIdSeek(slot=0, ids=1)") {
		t.Fatalf("forward chain reoriented:\n%s", p.Explain())
	}
	rs, err := p.Execute()
	if err != nil {
		t.Fatal(err)
	}
	expectRows(t, rs, [][]int64{{0, 1}})
}

// TestIDSeek: an id predicate on an unbound node becomes the node's scan,
// which visits the listed ids only — sorted, deduplicated, in range and
// carrying the node's label — and the predicate leaves the plan.
func TestIDSeek(t *testing.T) {
	for _, c := range []struct {
		query, explain string
		want           [][]int64
	}{
		{`MATCH (v) WHERE id(v) IN [5, 2, 2, 99, -1] RETURN v`, "NodeByIdSeek(slot=0, ids=2)", [][]int64{{2}, {5}}},
		{`MATCH (v:x) WHERE id(v) IN [5, 2, 0] RETURN v`, "NodeByIdSeek(slot=0, ids=2, label=x)", [][]int64{{0}, {2}}},
		{`MATCH (v:x), (u) WHERE id(u) = 5 RETURN v, u`, "NodeByIdSeek(slot=1, ids=1)", [][]int64{{0, 5}, {2, 5}}},
		{`MATCH (v) WHERE id(v) = 6 RETURN v`, "NodeByIdSeek(slot=0, ids=0)", nil},
	} {
		p, err := Build(mustParseQuery(t, c.query), NewEnv(paperGraph(), nil, nil))
		if err != nil {
			t.Fatal(err)
		}
		if got := p.Explain(); !strings.Contains(got, c.explain) || strings.Contains(got, "Filter") {
			t.Errorf("%s: plan\n%s\nwant %s and no filter", c.query, got, c.explain)
		}
		rs, err := p.Execute()
		if err != nil {
			t.Fatal(err)
		}
		expectRows(t, rs, c.want)
	}
}

// TestExplainPrintsPredicates: EXPLAIN and the planner's errors render a
// WHERE predicate as the Cypher text it was written as.
func TestExplainPrintsPredicates(t *testing.T) {
	p, err := Build(mustParseQuery(t, `MATCH (u)-[:a]->(v) WHERE id(u) = 0 AND id(v) IN [1, 2, 3] RETURN u, v`),
		NewEnv(paperGraph(), nil, nil))
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Explain(); !strings.Contains(got, "Filter(id(v) IN [1, 2, 3])") {
		t.Fatalf("explain does not print the predicate:\n%s", got)
	}
	_, err = Build(mustParseQuery(t, `MATCH (v)-[:a]->(u) WHERE id(zz) = 1 RETURN v`), NewEnv(paperGraph(), nil, nil))
	if want := "plan: WHERE references unbound variables: id(zz) = 1"; err == nil || err.Error() != want {
		t.Fatalf("error = %v, want %q", err, want)
	}
}

func TestChainOrientationPathPattern(t *testing.T) {
	// Same-relation sanity for a path-pattern chain with a selective
	// destination.
	rs := runQuery(t, paperGraph(), `
		PATH PATTERN S = ()-/ [:c ~S :d] | [:c (:y) :d] /->()
		MATCH (v)-/ ~S /->(to)
		WHERE id(to) = 4
		RETURN v, to`)
	expectRows(t, rs, [][]int64{{3, 4}})
}

func TestExplainShowsOperationsAndContext(t *testing.T) {
	q, err := cypher.Parse(`
		PATH PATTERN S = ()-/ [:c ~S :d] | [:c (:y) :d] /->()
		MATCH (v:x)-[:a]->()-/ :b ~S /->(to)
		RETURN v, to`)
	if err != nil {
		t.Fatal(err)
	}
	env := NewEnv(paperGraph(), nil, nil)
	p, err := Build(q, env)
	if err != nil {
		t.Fatal(err)
	}
	out := p.Explain()
	for _, want := range []string{"Project", "CFPQTraverse", "CondTraverse", "LabelScan",
		"Q -> :b S", "Path pattern context", "S#q1 -> :c (:y)", "S -> :c S :d | S#q1 :d"} {
		if !strings.Contains(out, want) {
			t.Fatalf("explain missing %q:\n%s", want, out)
		}
	}
}

func TestBuildErrors(t *testing.T) {
	cases := []string{
		`MATCH (v)-[:a]->(u) RETURN nosuch`,
		`MATCH (v)-[:a]->(u) WHERE id(zz) = 1 RETURN v`,
		`MATCH (v)-/ ~Undeclared /->(u) RETURN v`,
		`CREATE (a:X)`, // planner only handles MATCH
	}
	for _, src := range cases {
		q, err := cypher.Parse(src)
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		if _, err := Build(q, NewEnv(paperGraph(), nil, nil)); err == nil {
			t.Errorf("Build(%q): expected error", src)
		}
	}
}

func TestPropertyPredicateWithoutStoreFails(t *testing.T) {
	q, err := cypher.Parse(`MATCH (v)-[:a]->(u) WHERE v.name = 'x' RETURN v`)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Build(q, NewEnv(paperGraph(), nil, nil))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Execute(); err == nil {
		t.Fatal("expected property-store error")
	}
}

// TestTranslateConnectionShapes pins how a MATCH path connection is
// compiled into the declared grammar: steps and node checks in order,
// a nested alternation as a helper, destination labels as trailing node
// checks, an inverse application reversed onto S#r, and a bare
// reference as the declared pattern itself.
func TestTranslateConnectionShapes(t *testing.T) {
	q := mustParseQuery(t, `PATH PATTERN S = ()-/ :c [~S]? :d /->()
		MATCH (v)-/ <:a [:b | :c] (:x) ~S /->(u) RETURN v`)
	ctx, err := NewPathCtx(paperGraph(), q.PathPatterns)
	if err != nil {
		t.Fatal(err)
	}
	conn := q.Match.Patterns[0].Connections[0].(cypher.PathApply)
	for _, c := range []struct {
		conn   cypher.PathApply
		labels []string
		want   string
	}{
		{conn, nil, "Q#q1 -> :b | :c; Q#q2 -> :a_r Q#q1; Q#q3 -> Q#q2 (:x); Q -> Q#q3 S"},
		{conn, []string{"y"}, "Q#q1 -> :b | :c; Q#q2 -> :a_r Q#q1; Q#q3 -> Q#q2 (:x); Q -> Q#q3 S (:y)"},
		{cypher.PathApply{Expr: conn.Expr, Inverse: true}, nil,
			"S#r#q1 -> :d_r | :d_r S#r; S#r -> S#r#q1 :c_r; Q#q2 -> :b_r | :c_r; Q#q3 -> S#r (:x); Q#q4 -> Q#q3 Q#q2; Q -> Q#q4 :a"},
		{cypher.PathApply{Expr: cypher.PERef{Name: "S"}}, nil, "S"},
		{cypher.PathApply{Expr: cypher.PERef{Name: "S"}, Inverse: true}, nil, "S#r#q1 -> :d_r | :d_r S#r; S#r -> S#r#q1 :c_r"},
	} {
		path, err := ctx.compilePath(c.conn, c.labels)
		if err != nil {
			t.Fatal(err)
		}
		if got := path.String(); got != c.want {
			t.Errorf("compiled %s with labels %v:\n got  %s\n want %s", c.conn.Expr, c.labels, got, c.want)
		}
	}
}

func TestPatternsToGrammarQuantifiers(t *testing.T) {
	q, err := cypher.Parse(`
		PATH PATTERN P = ()-/ [:a]+ [:b]? /->()
		MATCH (v)-/ ~P /->(u)
		RETURN v`)
	if err != nil {
		t.Fatal(err)
	}
	cf, err := PatternsToGrammar(q.PathPatterns)
	if err != nil {
		t.Fatal(err)
	}
	if cf.Start != "P" {
		t.Fatalf("start = %q", cf.Start)
	}
	// The grammar must accept a+, a+b and nothing else short; its
	// terminals are relationship steps.
	wcnfize := func() interface{ Accepts([]string) bool } {
		w, err := wcnfFor(cf)
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	w := wcnfize()
	a, b := grammar.EdgeStep("a"), grammar.EdgeStep("b")
	for _, ok := range [][]string{{a}, {a, a}, {a, b}, {a, a, b}} {
		if !w.Accepts(ok) {
			t.Fatalf("grammar rejects %v", ok)
		}
	}
	for _, bad := range [][]string{{}, {b}, {a, b, b}, {b, a}} {
		if w.Accepts(bad) {
			t.Fatalf("grammar accepts %v", bad)
		}
	}
}

// TestStepsAndChecksKeepTheirKind: inside a PATH PATTERN a node check
// (:y) matches vertices labeled y, never a y edge, and a relationship
// step :y matches y edges, never a vertex labeled y — declared or
// written in the MATCH clause.
func TestStepsAndChecksKeepTheirKind(t *testing.T) {
	g := graph.New(7)
	g.AddEdge(0, "c", 1)
	g.AddEdge(1, "d", 3)
	g.AddVertexLabel(1, "y")
	g.AddEdge(0, "c", 4)
	g.AddEdge(4, "y", 5)
	g.AddEdge(5, "d", 6)
	const decl = `PATH PATTERN S = ()-/ :c (:y) :d /->() PATH PATTERN T = ()-/ :c :y /->() `
	for _, c := range []struct {
		query string
		want  [][]int64
	}{
		{decl + `MATCH (v)-/ ~S /->(to) RETURN v, to`, [][]int64{{0, 3}}},
		{`MATCH (v)-/ :c (:y) :d /->(to) RETURN v, to`, [][]int64{{0, 3}}},
		{decl + `MATCH (v)-/ ~T /->(to) RETURN v, to`, [][]int64{{0, 5}}},
		{`MATCH (v)-/ :c :y /->(to) RETURN v, to`, [][]int64{{0, 5}}},
	} {
		expectRows(t, runQuery(t, g, c.query), c.want)
	}
}

func TestTransposedRefStillResolves(t *testing.T) {
	// A reference applied right to left is solved as S#r, the reversal
	// of S's declaration, from the bound sources.
	rs := runQuery(t, paperGraph(), `
		PATH PATTERN S = ()-/ [:c ~S :d] | [:c (:y) :d] /->()
		MATCH (v)<-/ ~S /-(to)
		RETURN v, to`)
	// Reversed relation of {(3,4),(4,5)}.
	expectRows(t, rs, [][]int64{{4, 3}, {5, 4}})
}
