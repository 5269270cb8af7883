package gdb

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"

	"mscfpq/internal/cypher"
	"mscfpq/internal/graph"
	"mscfpq/internal/plan"
	"mscfpq/internal/store"
)

// seedPaperGraph loads the Figure 1 example via the API.
func seedPaperGraph(db *DB, name string) {
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
	db.AddGraph(name, g)
}

func rows(t *testing.T, db *DB, name, q string) [][]int64 {
	t.Helper()
	res, err := db.Query(name, q)
	if err != nil {
		t.Fatalf("query %q: %v", q, err)
	}
	out := append([][]int64(nil), res.Rows...)
	sort.Slice(out, func(i, j int) bool {
		for k := range out[i] {
			if out[i][k] != out[j][k] {
				return out[i][k] < out[j][k]
			}
		}
		return false
	})
	return out
}

func TestQueryOnSeededGraph(t *testing.T) {
	db := New()
	seedPaperGraph(db, "D")
	got := rows(t, db, "D", `
		PATH PATTERN S = ()-/ [:c ~S :d] | [:c (:y) :d] /->()
		MATCH (v)-/ ~S /->(to)
		RETURN v, to`)
	want := [][]int64{{3, 4}, {4, 5}}
	if len(got) != 2 || got[0][0] != want[0][0] || got[1][1] != want[1][1] {
		t.Fatalf("rows = %v, want %v", got, want)
	}
}

func TestCreateThenMatch(t *testing.T) {
	db := New()
	res, err := db.Query("social", `CREATE (a:Person {name: 'Ann'})-[:knows]->(b:Person {name: 'Bob'}), (b)-[:knows]->(c:Person {name: 'Cat'})`)
	if err != nil {
		t.Fatal(err)
	}
	if res.NodesCreated != 3 || res.EdgesCreated != 2 {
		t.Fatalf("create stats = %+v", res)
	}
	got := rows(t, db, "social", `MATCH (a:Person)-[:knows]->(b) RETURN a, b`)
	if len(got) != 2 {
		t.Fatalf("rows = %v", got)
	}
	// Property filter narrows to Ann.
	got = rows(t, db, "social", `MATCH (a:Person)-[:knows]->(b) WHERE a.name = 'Ann' RETURN a, b`)
	if len(got) != 1 || got[0][0] != 0 || got[0][1] != 1 {
		t.Fatalf("rows = %v", got)
	}
}

func TestCreateReusesBoundVars(t *testing.T) {
	db := New()
	res, err := db.Query("g", `CREATE (a:N)-[:e]->(b:N), (b)-[:e]->(a)`)
	if err != nil {
		t.Fatal(err)
	}
	if res.NodesCreated != 2 || res.EdgesCreated != 2 {
		t.Fatalf("stats = %+v", res)
	}
	s, err := db.Get("g")
	if err != nil {
		t.Fatal(err)
	}
	if s.Graph().NumVertices() != 2 {
		t.Fatalf("vertices = %d", s.Graph().NumVertices())
	}
}

func TestCreateInverseEdgeDirection(t *testing.T) {
	db := New()
	if _, err := db.Query("g", `CREATE (a:N)<-[:e]-(b:N)`); err != nil {
		t.Fatal(err)
	}
	s, _ := db.Get("g")
	if !s.Graph().HasEdge(1, "e", 0) {
		t.Fatal("inverse CREATE must add edge b->a")
	}
}

func TestQueryErrors(t *testing.T) {
	db := New()
	if _, err := db.Query("missing", `MATCH (v) RETURN v`); err == nil {
		t.Fatal("expected error for missing graph")
	}
	if _, err := db.Query("missing", `MATCH (v RETURN`); err == nil {
		t.Fatal("expected parse error")
	}
	seedPaperGraph(db, "D")
	if _, err := db.Query("D", `CREATE (a)-/ :p /->(b)`); err == nil {
		t.Fatal("expected error for path pattern in CREATE")
	}
	if _, err := db.Query("D", `CREATE (a)-[:x|y]->(b)`); err == nil {
		t.Fatal("expected error for multi-type CREATE edge")
	}
}

func TestDeleteAndList(t *testing.T) {
	db := New()
	seedPaperGraph(db, "A")
	seedPaperGraph(db, "B")
	if got := db.List(); len(got) != 2 || got[0] != "A" || got[1] != "B" {
		t.Fatalf("list = %v", got)
	}
	if ok, err := db.Delete("A"); !ok || err != nil {
		t.Fatalf("first delete = (%v, %v)", ok, err)
	}
	if ok, err := db.Delete("A"); ok || err != nil {
		t.Fatalf("second delete = (%v, %v)", ok, err)
	}
	if got := db.List(); len(got) != 1 || got[0] != "B" {
		t.Fatalf("list after delete = %v", got)
	}
}

func TestExplain(t *testing.T) {
	db := New()
	seedPaperGraph(db, "D")
	text, err := db.Explain("D", `
		PATH PATTERN S = ()-/ [:a ~S :b] | [:a :b] /->()
		MATCH (v)-/ ~S /->(to)
		RETURN v, to`)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"CFPQTraverse", "Project", "Path pattern context"} {
		if !strings.Contains(text, want) {
			t.Fatalf("explain missing %q:\n%s", want, text)
		}
	}
	if _, err := db.Explain("D", `CREATE (a:N)`); err == nil {
		t.Fatal("EXPLAIN of CREATE should fail")
	}
}

func TestConcurrentQueries(t *testing.T) {
	db := New()
	seedPaperGraph(db, "D")
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := db.Query("D", `
				PATH PATTERN S = ()-/ [:c ~S :d] | [:c (:y) :d] /->()
				MATCH (v)-/ ~S /->(to)
				RETURN v, to`)
			if err != nil {
				errs <- err
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestPathCtxCacheReuse(t *testing.T) {
	db := New()
	seedPaperGraph(db, "D")
	s, _ := db.Get("D")
	query := `
		PATH PATTERN S = ()-/ [:c ~S :d] | [:c (:y) :d] /->()
		MATCH (v)-/ ~S /->(to)
		RETURN v, to`
	other := `
		PATH PATTERN P = ()-/ [:a :b] /->()
		MATCH (v)-/ ~P /->(to)
		RETURN v, to`
	// cached is the context the store keeps for a query's declarations.
	cached := func(text string) *cachedCtx {
		q, err := cypher.Parse(text)
		if err != nil {
			t.Fatal(err)
		}
		if sl := s.slot(plan.CtxKey(q.PathPatterns), false); sl != nil {
			return sl.cur.Load()
		}
		return nil
	}
	first := rows(t, db, "D", query)
	c1 := cached(query)
	if c1 == nil || c1.version != s.Snapshot().Version() {
		t.Fatalf("first query must cache its context at the current version: %+v", c1)
	}
	second := rows(t, db, "D", query)
	if cached(query) != c1 {
		t.Fatal("second query must reuse the cached context")
	}
	if len(first) != len(second) {
		t.Fatalf("cached answer differs: %v vs %v", first, second)
	}
	// A write invalidates the cache and results stay correct.
	if _, err := db.Query("D", `CREATE (a:freshnode)`); err != nil {
		t.Fatal(err)
	}
	third := rows(t, db, "D", query)
	c3 := cached(query)
	if c3 == c1 || c3.version != s.Snapshot().Version() {
		t.Fatalf("post-write query must rebuild the context at the new version: %+v", c3)
	}
	if len(third) != len(first) {
		t.Fatalf("answer changed after unrelated write: %v vs %v", third, first)
	}
	// A different pattern set gets its own context.
	rows(t, db, "D", other)
	if c := cached(other); c == nil || c == c3 || cached(query) != c3 {
		t.Fatal("different declarations must get their own context")
	}
}

func TestConcurrentPathPatternQueriesShareCache(t *testing.T) {
	db := New()
	seedPaperGraph(db, "D")
	query := `
		PATH PATTERN S = ()-/ [:c ~S :d] | [:c (:y) :d] /->()
		MATCH (v)-/ ~S /->(to)
		RETURN v, to`
	// Warm the cache, then hammer it concurrently.
	if _, err := db.Query("D", query); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 12)
	for i := 0; i < 12; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := db.Query("D", query)
			if err != nil {
				errs <- err
				return
			}
			if len(res.Rows) != 2 {
				errs <- fmt.Errorf("rows = %v", res.Rows)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestPropEquals(t *testing.T) {
	s := NewGraphStore(graph.New(2))
	if s.PropEquals(0, "k", propVal("v")) {
		t.Fatal("empty store matched")
	}
	if _, err := s.st.Update(func(tx *store.Tx) error {
		tx.SetProp(0, "k", propVal("v"))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if !s.PropEquals(0, "k", propVal("v")) || s.PropEquals(0, "k", propVal("w")) || s.PropEquals(1, "k", propVal("v")) {
		t.Fatal("PropEquals wrong")
	}
}
