package resp

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"runtime"
	"slices"
	"strings"
	"testing"

	"mscfpq/internal/gdb"
	"mscfpq/internal/graph"
	"mscfpq/internal/plan"
)

// asCells is res with its rows flattened into cells, Rows nil: the form
// gdb.DB.QueryCells answers in.
func asCells(res *gdb.QueryResult) *gdb.QueryResult {
	out := *res
	out.Cells, out.NumRows, out.Rows = slices.Concat(res.Rows...), len(res.Rows), nil
	return &out
}

// withRows is res with its cells cut into Rows, for the reference tree.
func withRows(res *gdb.QueryResult) *gdb.QueryResult {
	out := *res
	out.Rows = plan.CutRows(res.Cells, res.NumRows)
	return &out
}

// TestCellReplyMatchesValueTree pins the server's reply path: a
// queryReply encoded from a result's cells gives the same bytes as Write
// of the Value tree of its rows. The results come from the database
// (no rows, a one-column count, two and three columns, an exact cache
// hit, a PROFILE'd statement) and from cells written directly (extreme
// values, 6000 rows, rows wider than the connection's buffer).
func TestCellReplyMatchesValueTree(t *testing.T) {
	g := graph.New(6)
	for _, e := range [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}} {
		g.AddEdge(e[0], "a", e[1])
	}
	g.AddEdge(1, "b", 5)
	db := gdb.New()
	db.SetPolicy(gdb.Policy{CacheMaxBytes: 1 << 20})
	db.AddGraph("g", g)

	type result struct {
		name string
		res  *gdb.QueryResult
	}
	var cases []result
	for _, c := range []struct{ name, text string }{
		{"no rows", "MATCH (x)-[:a]->(y) WHERE id(x) = 4 RETURN x, y"},
		{"count", "MATCH (v) RETURN count(v)"},
		{"two columns", "MATCH (x)-[:a]->(y) RETURN x, y"},
		{"three columns", "MATCH (x)-[:a]->(y)-[:a]->(z) RETURN x, y, z"},
		{"exact hit", "MATCH (x)-[:a]->(y) RETURN x, y"},
		{"profile", "PROFILE MATCH (x)-[:a | :b]->(y) RETURN y, x"},
	} {
		hits := db.Cache().Stats().Hits
		res, err := db.QueryCells(context.Background(), "g", c.text)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if hit := db.Cache().Stats().Hits > hits; hit != (c.name == "exact hit") {
			t.Fatalf("%s: served as a hit: %v", c.name, hit)
		}
		if res.Rows != nil || len(res.Cells) != res.NumRows*len(res.Columns) {
			t.Fatalf("%s: %d rows of %d columns in %d cells, rows cut: %v", c.name, res.NumRows, len(res.Columns), len(res.Cells), res.Rows != nil)
		}
		if (res.NumRows == 0) != (c.name == "no rows") || (res.Profile == nil) != (c.name != "profile") {
			t.Fatalf("%s: %d rows, profile %q", c.name, res.NumRows, res.Profile)
		}
		cases = append(cases, result{c.name, res})
	}
	for _, cols := range []int{1, 2, 3, 300} { // 300 cells: a row wider than the 4 KiB buffer
		n := 6000
		if cols == 300 {
			n = 3
		}
		res := asCells(denseResult(n, cols))
		for i := range res.Cells {
			if i%5 == 0 {
				res.Cells[i] = []int64{math.MinInt64, math.MaxInt64, -1, 0, 1e18}[i/5%5]
			}
		}
		cases = append(cases, result{fmt.Sprintf("cells %dx%d", n, cols), res})
	}

	for _, c := range cases {
		tree := refEncodeResult(withRows(c.res))
		want := encodeWith(t, func(w *bufio.Writer) error { return Write(w, tree) })
		if got := encodeWith(t, queryReply{c.res}.encode); !bytes.Equal(got, want) {
			t.Fatalf("%s: encoded from cells, the reply differs from Write of its tree at byte %d of %d", c.name, firstDiff(got, want), len(want))
		}
	}
}

// TestClientReadsReplyPastCommandBound: a Client reads a reply array
// longer than the 1 << 20 elements a server accepts in a command, which
// a chunk of a sweep over the paper's largest graph returns.
func TestClientReadsReplyPastCommandBound(t *testing.T) {
	if testing.Short() {
		t.Skip("decodes a 4 MiB reply of 1 048 577 integers")
	}
	n := maxArrayLen + 1
	var wire strings.Builder
	fmt.Fprintf(&wire, "*%d\r\n", n)
	for i := 0; i < n; i++ {
		fmt.Fprintf(&wire, ":%d\r\n", i%10)
	}
	c, err := Dial(cannedServer(t, false, []byte(wire.String())))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	v, err := c.Do("GRAPH.QUERY", "g", "q")
	if err != nil {
		t.Fatalf("Client.Do of a %d-element reply: %v", n, err)
	}
	if len(v.Array) != n || v.Array[n-1].Int != int64((n-1)%10) {
		t.Fatalf("decoded %d elements, want %d", len(v.Array), n)
	}
	if _, err := Read(bufio.NewReader(strings.NewReader(wire.String()))); err == nil || !strings.Contains(err.Error(), "bad array length") {
		t.Fatalf("Read of the same bytes as a command = %v, want the command bound", err)
	}
}

// TestServerHitCutsNoRows: GRAPH.QUERY answers an exact hit of a
// 6000-row answer from the cached cells, through gdb.DB.QueryCells, so
// executing and encoding it allocates nothing sized by the answer.
// Through QueryContext it would cut 144 KiB of row headers first.
func TestServerHitCutsNoRows(t *testing.T) {
	g := graph.New(12 + 600)
	g.AddEdge(10, "subClassOf", 11)
	for v := 0; v < 10; v++ {
		g.AddEdge(10, "subClassOf", v)
	}
	for to := 12; to < 12+600; to++ {
		g.AddEdge(11, "subClassOf", to)
	}
	db := gdb.New()
	db.SetPolicy(gdb.Policy{CacheMaxBytes: 64 << 20})
	db.AddGraph("g", g)
	srv := NewServer(db)
	args := []string{"GRAPH.QUERY", "g", "PATH PATTERN S = ()-/ [<:subClassOf ~S :subClassOf] | [:subClassOf] /->() " +
		"MATCH (v)-/ ~S /->(to) WHERE id(v) IN [0, 1, 2, 3, 4, 5, 6, 7, 8, 9] RETURN v, to"}
	w := bufio.NewWriter(io.Discard)
	serve := func() {
		rep, _ := srv.execute(args)
		q, ok := rep.(queryReply)
		if !ok || q.res.NumRows != 6000 {
			t.Fatalf("GRAPH.QUERY answered %T", rep)
		}
		if err := rep.encode(w); err != nil {
			t.Fatal(err)
		}
	}
	serve() // fills the cache
	const runs = 50
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		serve()
	}
	runtime.ReadMemStats(&after)
	if perOp := (after.TotalAlloc - before.TotalAlloc) / runs; perOp >= 1<<10 {
		t.Fatalf("a 6000-row hit allocates %d bytes from command to reply bytes, want under 1 KiB", perOp)
	}
}
