package plan

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"mscfpq/internal/cypher"
	"mscfpq/internal/graph"
)

// Read-out fixture: the benchmark's dense-scan shape in miniature.
// Vertices 0..9 are the sources, 10 and 11 a two-vertex bridge and
// 12..611 the targets; under G2 every source reaches every target, so
// the query returns 6000 (v, to) rows from a fixpoint of a few rounds.
const (
	readoutSources = 10
	readoutTargets = 600
	readoutRows    = readoutSources * readoutTargets
)

func readoutPlan(tb testing.TB, ret string) *Plan {
	tb.Helper()
	g := graph.New(readoutSources + 2 + readoutTargets)
	x, y := readoutSources, readoutSources+1
	g.AddEdge(x, "subClassOf", y)
	ids := make([]string, readoutSources)
	for v := 0; v < readoutSources; v++ {
		g.AddEdge(x, "subClassOf", v)
		ids[v] = fmt.Sprint(v)
	}
	for i := 0; i < readoutTargets; i++ {
		g.AddEdge(y, "subClassOf", y+1+i)
	}
	q, err := cypher.Parse("PATH PATTERN S = ()-/ [<:subClassOf ~S :subClassOf] | [:subClassOf] /->() " +
		"MATCH (v)-/ ~S /->(to) WHERE id(v) IN [" + strings.Join(ids, ", ") + "] RETURN " + ret)
	if err != nil {
		tb.Fatal(err)
	}
	p, err := Build(q, NewEnv(g, nil, nil))
	if err != nil {
		tb.Fatal(err)
	}
	return p
}

// TestExecuteAllocsPerRow guards the read-out path: operators hand
// their parent a record they reuse and ExecuteWith cuts every row from
// one array, so executing the dense-scan plan shape over a warm index
// costs a constant number of allocations plus the logarithmic growth
// of the cell buffer, not a few per row (before: 2 per row for the
// Traverse and Project records, and 24 bytes of row header growth).
func TestExecuteAllocsPerRow(t *testing.T) {
	p := readoutPlan(t, "v, to")
	if got := strings.Join(strings.Fields(p.Explain()), " "); !strings.HasPrefix(got, "Project(v, to) CFPQTraverse(") ||
		!strings.Contains(got, " NodeByIdSeek(slot=0, ids=10) ") {
		t.Fatalf("fixture no longer plans as NodeByIdSeek -> CFPQTraverse -> Project:\n%s", p.Explain())
	}
	rs, err := p.Execute() // also saturates the path-pattern index
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) != readoutRows {
		t.Fatalf("fixture returned %d rows, want %d", len(rs.Rows), readoutRows)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := p.Execute(); err != nil {
			t.Fatal(err)
		}
	})
	if limit := float64(readoutRows / 64); allocs > limit {
		t.Fatalf("Execute allocates %.0f objects for %d rows, want <= %.0f (1 per 64 rows)", allocs, readoutRows, limit)
	}
}

// TestResultRowsOwnTheirArray pins the ownership rule the query cache
// relies on: no later execution of the same plan — which reuses every
// operator buffer — writes to the rows of an earlier result, whichever
// operator is the root.
func TestResultRowsOwnTheirArray(t *testing.T) {
	for _, ret := range []string{"v, to", "v, to ORDER BY to DESC SKIP 7 LIMIT 100", "v, count(to)"} {
		p := readoutPlan(t, ret)
		first, err := p.Execute()
		if err != nil {
			t.Fatal(err)
		}
		if len(first.Rows) == 0 {
			t.Fatalf("RETURN %s: no rows", ret)
		}
		for i, row := range first.Rows {
			if len(row) != len(first.Columns) || cap(row) != len(row) {
				t.Fatalf("RETURN %s: row %d has len %d cap %d; an append to it must not reach its neighbour", ret, i, len(row), cap(row))
			}
		}
		want := make([][]int64, len(first.Rows))
		for i, row := range first.Rows {
			want[i] = append([]int64(nil), row...)
		}
		for range 3 {
			again, err := p.Execute()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(again.Rows, want) {
				t.Fatalf("RETURN %s: re-execution answered differently", ret)
			}
		}
		if !reflect.DeepEqual(first.Rows, want) {
			t.Fatalf("RETURN %s: a later execution overwrote the first result's rows", ret)
		}
	}
}

func BenchmarkExecuteReadout(b *testing.B) {
	p := readoutPlan(b, "v, to")
	if _, err := p.Execute(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rs, err := p.Execute()
		if err != nil || len(rs.Rows) != readoutRows {
			b.Fatal(len(rs.Rows), err)
		}
	}
}
