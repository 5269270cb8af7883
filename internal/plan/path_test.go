package plan

import (
	"errors"
	"reflect"
	"runtime/debug"
	"testing"

	"mscfpq/internal/exec"
	"mscfpq/internal/graph"
)

// runGoverned runs a query under a governor it returns, so a test can
// read the work the query spent.
func runGoverned(t *testing.T, g *graph.Graph, src string, opts exec.Options) (*ResultSet, *exec.Run, error) {
	t.Helper()
	p, err := Build(mustParseQuery(t, src), NewEnv(g, nil, nil))
	if err != nil {
		t.Fatal(err)
	}
	run, cancel := opts.Start()
	defer cancel()
	rs, err := p.ExecuteWith(exec.WithRun(run))
	return rs, run, err
}

// chains is k disjoint 50-vertex a-chains, each with b shortcuts from
// its second vertex to its fourth and from its third to its sixth, and
// its third vertex labeled x.
func chains(k int) *graph.Graph {
	g := graph.New(50 * k)
	for c := 0; c < 50*k; c += 50 {
		for i := c; i < c+49; i++ {
			g.AddEdge(i, "a", i+1)
		}
		g.AddEdge(c+1, "b", c+3)
		g.AddEdge(c+2, "b", c+5)
		g.AddVertexLabel(c+2, "x")
	}
	return g
}

// hopShapes are the one-step connections out of vertex 1 of chains, with
// the rows they return: relationship patterns typed, alternated,
// inverse, untyped and with a labeled destination, and a one-step path
// pattern.
var hopShapes = []struct {
	conn string
	rows [][]int64
}{
	{`-[:a]->(u)`, [][]int64{{1, 2}}},
	{`-[:a|b]->(u)`, [][]int64{{1, 2}, {1, 3}}},
	{`<-[:a]-(u)`, [][]int64{{1, 0}}},
	{`-->(u)`, [][]int64{{1, 2}, {1, 3}}},
	{`-/ :a /->(u)`, [][]int64{{1, 2}}},
	{`-[:a]->(u:x)`, [][]int64{{1, 2}}},
}

func hopQuery(conn string) string { return `MATCH (v)` + conn + ` WHERE id(v) = 1 RETURN v, u` }

// TestTraverseAllocsAreSizeIndependent: a one-step connection bound to
// one source allocates as many objects, and does as much work, on 20 000
// vertices as on 5 000. Nothing builds a whole-graph matrix per batch or
// per execution; only the n-slot row tables grow with the graph. The
// collector is off while allocations are counted, so it cannot empty
// the multiply accumulator pool more often on the larger graph. Under
// the race detector sync.Pool drops entries at random, so only the rows
// and the work are compared there.
func TestTraverseAllocsAreSizeIndependent(t *testing.T) {
	for _, h := range hopShapes {
		var allocs []float64
		var spent []int64
		for _, k := range []int{100, 400} {
			g := chains(k)
			rs, run, err := runGoverned(t, g, hopQuery(h.conn), exec.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if got := sortedRows(rs); !reflect.DeepEqual(got, h.rows) {
				t.Fatalf("%s on %d vertices: rows %v, want %v", h.conn, 50*k, got, h.rows)
			}
			p, err := Build(mustParseQuery(t, hopQuery(h.conn)), NewEnv(g, nil, nil))
			if err != nil {
				t.Fatal(err)
			}
			gc := debug.SetGCPercent(-1)
			allocs = append(allocs, testing.AllocsPerRun(10, func() {
				if _, err := p.Execute(); err != nil {
					t.Fatal(err)
				}
			}))
			debug.SetGCPercent(gc)
			spent = append(spent, run.Spent())
		}
		if (!raceEnabled && allocs[0] != allocs[1]) || spent[0] != spent[1] {
			t.Errorf("%s: %.0f allocs and %d work on 5000 vertices, %.0f and %d on 20000",
				h.conn, allocs[0], spent[0], allocs[1], spent[1])
		}
	}
}

// BenchmarkTraverseHop times each one-step shape bound to one source on
// 20 000 chain vertices.
func BenchmarkTraverseHop(b *testing.B) {
	g := chains(400)
	for _, h := range hopShapes {
		b.Run(h.conn, func(b *testing.B) {
			p, err := Build(mustParseQuery(b, hopQuery(h.conn)), NewEnv(g, nil, nil))
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if rs, err := p.Execute(); err != nil || len(rs.Rows()) != len(h.rows) {
					b.Fatal(rs, err)
				}
			}
		})
	}
}

// TestPathWorkIsSizeIndependent: a path pattern bound to one source
// costs what that source reaches, not what the graph holds — under a
// quantifier, an inverse application and a reference inside an
// alternation alike.
func TestPathWorkIsSizeIndependent(t *testing.T) {
	const decl = `PATH PATTERN S = ()-/ [:a ~S :b] | [:a :b] /->() `
	for _, c := range []struct {
		query string
		rows  int
	}{
		{`MATCH (v)-/ [:a]* /->(to) WHERE id(v) = 0 RETURN v, to`, 50},
		{decl + `MATCH (v)<-/ ~S /-(to) WHERE id(v) = 3 RETURN v, to`, 1},
		{decl + `MATCH (v)-/ :a [~S | :b] /->(to) WHERE id(v) = 0 RETURN v, to`, 2},
	} {
		var spent []int64
		var rows []*ResultSet
		for _, k := range []int{100, 400} {
			rs, run, err := runGoverned(t, chains(k), c.query, exec.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if len(rs.Rows()) != c.rows {
				t.Fatalf("%s on %d vertices: %d rows, want %d", c.query, 50*k, len(rs.Rows()), c.rows)
			}
			spent = append(spent, run.Spent())
			rows = append(rows, rs)
		}
		if spent[0] != spent[1] || !reflect.DeepEqual(sortedRows(rows[0]), sortedRows(rows[1])) {
			t.Errorf("%s: work %d on 5000 vertices, %d on 20000", c.query, spent[0], spent[1])
		}
	}
}

// TestClosureBudgetStopsEarly pins that the budget bounds a quantified
// path while it grows: a tiny budget aborts [:a]* on a chain long before
// the n(n-1)/2 pairs of its closure have been built.
func TestClosureBudgetStopsEarly(t *testing.T) {
	const n = 1500
	g := graph.New(n)
	for i := 0; i+1 < n; i++ {
		g.AddEdge(i, "a", i+1)
	}
	_, run, err := runGoverned(t, g, `MATCH (v)-/ [:a]* /->(to) RETURN count(to)`, exec.Options{Budget: 1})
	if !errors.Is(err, exec.ErrBudget) {
		t.Fatalf("err = %v, want ErrBudget", err)
	}
	if full := int64(n * (n - 1) / 2); run.Spent() >= full/100 {
		t.Fatalf("Spent = %d before aborting; the full closure has %d entries", run.Spent(), full)
	}
}

// TestAlgorithm8SourcesReachReferences: the sources the driver solves a
// referenced pattern for are the destinations of what precedes the
// reference, as Algorithm 8's extended multiplication gives them — here
// the a-successors of the bound sources, and nothing else.
func TestAlgorithm8SourcesReachReferences(t *testing.T) {
	q := mustParseQuery(t, `PATH PATTERN S = ()-/ [:c ~S :d] | [:c (:y) :d] /->()
		MATCH (v)-/ :a ~S /->(to) WHERE id(v) IN [0, 3] RETURN v, to`)
	g := paperGraph()
	ctx, err := NewPathCtx(g, q.PathPatterns)
	if err != nil {
		t.Fatal(err)
	}
	p, err := BuildWithCtx(q, NewEnv(g, nil, nil), ctx)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Execute(); err != nil {
		t.Fatal(err)
	}
	// 0 -a-> 1; vertex 3 has no a-edge.
	if got := ctx.idx.ProcessedSources(ctx.idx.W.NontermID("S")).Ints(); !reflect.DeepEqual(got, []int{1}) {
		t.Fatalf("S solved for %v, want [1]", got)
	}
}
