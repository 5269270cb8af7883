package plan

import (
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
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
	if len(rs.Rows()) != readoutRows {
		t.Fatalf("fixture returned %d rows, want %d", len(rs.Rows()), readoutRows)
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
		if len(first.Rows()) == 0 {
			t.Fatalf("RETURN %s: no rows", ret)
		}
		for i, row := range first.Rows() {
			if len(row) != len(first.Columns) || cap(row) != len(row) {
				t.Fatalf("RETURN %s: row %d has len %d cap %d; an append to it must not reach its neighbour", ret, i, len(row), cap(row))
			}
		}
		want := make([][]int64, len(first.Rows()))
		for i, row := range first.Rows() {
			want[i] = append([]int64(nil), row...)
		}
		for range 3 {
			again, err := p.Execute()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(again.Rows(), want) {
				t.Fatalf("RETURN %s: re-execution answered differently", ret)
			}
		}
		if !reflect.DeepEqual(first.Rows(), want) {
			t.Fatalf("RETURN %s: a later execution overwrote the first result's rows", ret)
		}
	}
}

// chainPlan plans every e-edge of a chain of n+1 vertices: n rows of
// (v, u), row i being (i, i+1).
func chainPlan(tb testing.TB, n int) *Plan {
	tb.Helper()
	g := graph.New(n + 1)
	for v := 0; v < n; v++ {
		g.AddEdge(v, "e", v+1)
	}
	p, err := Build(mustParseQuery(tb, "MATCH (v)-[:e]->(u) RETURN v, u"), NewEnv(g, nil, nil))
	if err != nil {
		tb.Fatal(err)
	}
	return p
}

// chainAnswerErr checks rs against chainPlan's answer on n edges.
func chainAnswerErr(rs *ResultSet, n int) error {
	if rs.NumRows != n || len(rs.Cells) != 2*n || cap(rs.Cells) != len(rs.Cells) {
		return fmt.Errorf("%d rows in %d cells of capacity %d, want %d rows", rs.NumRows, len(rs.Cells), cap(rs.Cells), n)
	}
	for i := 0; i < n; i++ {
		if rs.Cells[2*i] != int64(i) || rs.Cells[2*i+1] != int64(i+1) {
			return fmt.Errorf("row %d is %v", i, rs.Cells[2*i:2*i+2])
		}
	}
	return nil
}

// TestDrainScratchNeverLeaks pins the other side of the ownership rule:
// the room drainRows collects cells in is pooled and shared by every
// execution, so no answer may keep any of it. A 6000-row answer stays
// whole, in an array of exactly its size, while a larger execution
// grows the same room and concurrent executions take rooms of their
// own.
func TestDrainScratchNeverLeaks(t *testing.T) {
	first, err := readoutPlan(t, "v, to").Execute()
	if err != nil {
		t.Fatal(err)
	}
	if cap(first.Cells) != len(first.Cells) || len(first.Cells) != 2*readoutRows {
		t.Fatalf("first answer: %d cells of capacity %d, want %d of exactly that", len(first.Cells), cap(first.Cells), 2*readoutRows)
	}
	want := slices.Clone(first.Cells)

	larger := chainPlan(t, 3*readoutRows)
	rs, err := larger.Execute()
	if err != nil {
		t.Fatal(err)
	}
	if err := chainAnswerErr(rs, 3*readoutRows); err != nil {
		t.Fatal(err)
	}

	sizes := []int{1, 100, readoutRows, 2 * readoutRows, 3 * readoutRows, drainKeepMax}
	plans := make([]*Plan, len(sizes))
	for i, n := range sizes {
		plans[i] = chainPlan(t, n)
	}
	var wg sync.WaitGroup
	for i := range plans {
		wg.Add(1)
		go func(p *Plan, n int) {
			defer wg.Done()
			for range 5 {
				rs, err := p.Execute()
				if err == nil {
					err = chainAnswerErr(rs, n)
				}
				if err != nil {
					t.Errorf("concurrent execution of %d rows: %v", n, err)
					return
				}
			}
		}(plans[i], sizes[i])
	}
	wg.Wait()
	if !slices.Equal(first.Cells, want) || cap(first.Cells) != len(first.Cells) {
		t.Fatal("a later execution wrote into the first answer's cells")
	}
}

// TestExecuteBytesPerCell gates what a warm execution of the dense-scan
// plan shape allocates: its answer, 8 bytes a cell, and little besides
// (the room it collects cells in is pooled). Before the pool: 5.5 times
// the answer, for the room's doublings and 144 KiB of row headers.
func TestExecuteBytesPerCell(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled rooms at random")
	}
	p := readoutPlan(t, "v, to")
	if _, err := p.Execute(); err != nil {
		t.Fatal(err)
	}
	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if _, err := p.Execute(); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	cellBytes := uint64(8 * 2 * readoutRows)
	if perOp := (after.TotalAlloc - before.TotalAlloc) / runs; 2*perOp > 3*cellBytes {
		t.Errorf("Execute of %d cells (%d bytes) allocates %d bytes, want <= 1.5x the cells", 2*readoutRows, cellBytes, perOp)
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
		if err != nil || rs.NumRows != readoutRows {
			b.Fatal(rs.NumRows, err)
		}
	}
}
