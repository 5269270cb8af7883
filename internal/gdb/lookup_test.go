package gdb

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"mscfpq/internal/cypher"
	"mscfpq/internal/dataset"
	"mscfpq/internal/graph"
	"mscfpq/internal/matrix"
	"mscfpq/internal/plan"
	"mscfpq/internal/store"
)

// hitAllocs bounds what an exact result-cache hit through QueryContext
// allocates: the reply's result header and its row headers, whatever
// the row count. Parsing the statement alone costs dozens of
// allocations.
const hitAllocs = 2

// cachedDB is a database with the result cache on and revalidateGraph
// as graph "g".
func cachedDB() (*DB, *GraphStore) {
	db := New()
	db.SetPolicy(Policy{CacheMaxBytes: 1 << 20})
	return db, db.AddGraph("g", revalidateGraph())
}

// TestCacheHitSkipsParse: an exact hit is served from the raw text
// before anything parses it, so it allocates a small constant.
func TestCacheHitSkipsParse(t *testing.T) {
	db, _ := cachedDB()
	text := sourcesQuery(0, 1)
	want, err := db.Query("g", text)
	if err != nil {
		t.Fatal(err)
	}
	parseAllocs := testing.AllocsPerRun(10, func() { _, _ = cypher.Parse(text) })
	before := db.Cache().Stats()
	allocs := testing.AllocsPerRun(100, func() {
		res, err := db.Query("g", text)
		if err != nil || len(res.Rows) != len(want.Rows) {
			t.Fatal(res, err)
		}
	})
	if allocs > hitAllocs {
		t.Fatalf("an exact hit allocates %.0f objects, want at most %d (a parse allocates %.0f)", allocs, hitAllocs, parseAllocs)
	}
	if parseAllocs <= 10*hitAllocs {
		t.Fatalf("a parse allocates only %.0f objects: the pin no longer tells a hit from a parse", parseAllocs)
	}
	if st := db.Cache().Stats(); st.Misses != before.Misses || st.Hits != before.Hits+101 {
		t.Fatalf("101 cached reads moved hits %d → %d and misses %d → %d", before.Hits, st.Hits, before.Misses, st.Misses)
	}
}

// declG2 is the paper's same-generation query G2 over subClassOf, as
// the wire benchmark's dense workloads declare it.
const (
	declG1 = "PATH PATTERN S = ()-/ [<:subClassOf ~S :subClassOf] | [<:type ~S :type] | [<:subClassOf :subClassOf] | [<:type :type] /->() "
	declG2 = "PATH PATTERN S = ()-/ [<:subClassOf ~S :subClassOf] | [:subClassOf] /->() "
)

// g2Query is the dense-scan statement: the (v, to) pairs of G2 from ids.
func g2Query(ids []int) string { return chunkQuery(declG2, ids) }

// chunkQuery is the statement of the wire's chunk queries: the (v, to)
// pairs of the S that decl declares, from ids.
func chunkQuery(decl string, ids []int) string {
	list := strings.Trim(strings.Join(strings.Fields(fmt.Sprint(ids)), ", "), "[]")
	return decl + "MATCH (v)-/ ~S /->(to) WHERE id(v) IN [" + list + "] RETURN v, to"
}

// wideRows is the row count of wideQuery on wideGraph, about a
// dense-scan reply: vertices 0..9 are the sources, 10 and 11 a bridge
// and 12..611 the targets, and every source reaches every target.
const wideRows = 10 * 600

func wideGraph() *graph.Graph {
	g := graph.New(12 + 600)
	g.AddEdge(10, "subClassOf", 11)
	for v := range 10 {
		g.AddEdge(10, "subClassOf", v)
	}
	for to := 12; to < 12+600; to++ {
		g.AddEdge(11, "subClassOf", to)
	}
	return g
}

var wideQuery = g2Query([]int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9})

// wideDB is a database with the result cache on, wideGraph as graph "g"
// and wideQuery's answer cached; it returns that answer.
func wideDB(tb testing.TB) (*DB, *GraphStore, *QueryResult) {
	tb.Helper()
	db := New()
	db.SetPolicy(Policy{CacheMaxBytes: 64 << 20})
	s := db.AddGraph("g", wideGraph())
	res, err := db.Query("g", wideQuery)
	if err != nil || len(res.Rows) != wideRows {
		tb.Fatalf("wide query: %d rows, %v", len(res.Rows), err)
	}
	return db, s, res
}

// TestCachedAnswerIsFlat: the cache holds an answer as its cells alone,
// row-major with no per-row slice, and an exact hit of a 6000-row
// answer cuts its row headers within hitAllocs.
func TestCachedAnswerIsFlat(t *testing.T) {
	db, s, want := wideDB(t)
	v, hit, _ := db.Cache().Lookup(store.TextKey(s.StoreID(), wideQuery), s.Version(), nil)
	a, ok := v.(*answer)
	if !hit || !ok {
		t.Fatalf("cached value %T (hit %v), want *answer", v, hit)
	}
	if a.rows != wideRows || len(a.cells) != a.rows*len(a.columns) {
		t.Fatalf("answer of %d rows × %d columns holds %d cells", a.rows, len(a.columns), len(a.cells))
	}
	allocs := testing.AllocsPerRun(20, func() {
		res, err := db.Query("g", wideQuery)
		if err != nil || len(res.Rows) != wideRows {
			t.Fatal(len(res.Rows), err)
		}
	})
	if allocs > hitAllocs {
		t.Fatalf("an exact hit of %d rows allocates %.0f objects, want at most %d", wideRows, allocs, hitAllocs)
	}
	got, err := db.Query("g", wideQuery)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Rows, want.Rows) || !reflect.DeepEqual(got.Columns, want.Columns) {
		t.Fatal("a hit answered differently from the evaluation it cached")
	}
}

// TestCellHitIsItsResultAlone: an exact hit of a 6000-row answer
// through QueryCells, the server's entry, shares the cached cells and
// cuts no row headers, so it allocates the result and nothing sized by
// the answer (QueryContext's hit cuts 144 KiB of headers).
func TestCellHitIsItsResultAlone(t *testing.T) {
	db, _, want := wideDB(t)
	ctx := context.Background()
	read := func() *QueryResult {
		res, err := db.QueryCells(ctx, "g", wideQuery)
		if err != nil || res.NumRows != wideRows || res.Rows != nil {
			t.Fatalf("cell hit: %v", err)
		}
		return res
	}
	got := read()
	if !reflect.DeepEqual(got.Cells, want.Cells) || !reflect.DeepEqual(got.Columns, want.Columns) {
		t.Fatal("a cell hit answered differently from the evaluation it cached")
	}
	if allocs := testing.AllocsPerRun(20, func() { read() }); allocs > hitAllocs {
		t.Fatalf("a cell hit of %d rows allocates %.0f objects, want at most %d", wideRows, allocs, hitAllocs)
	}
	const runs = 100
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		read()
	}
	runtime.ReadMemStats(&after)
	if perOp := (after.TotalAlloc - before.TotalAlloc) / runs; perOp >= 1024 {
		t.Fatalf("a cell hit of %d rows allocates %d bytes, want under 1 KiB", wideRows, perOp)
	}
}

// TestHitRowsEndAtTheirWidth: readers share the cached cells, so every
// row a reply hands out ends its capacity with its width. Appending to
// each row of the reply that filled the cache and of a hit leaves the
// rows of a second hit as they were.
func TestHitRowsEndAtTheirWidth(t *testing.T) {
	db, _, filled := wideDB(t)
	first, err := db.Query("g", wideQuery)
	if err != nil {
		t.Fatal(err)
	}
	second, err := db.Query("g", wideQuery)
	if err != nil {
		t.Fatal(err)
	}
	want := make([][]int64, len(second.Rows))
	for i, row := range second.Rows {
		want[i] = append([]int64(nil), row...)
	}
	for _, res := range []*QueryResult{filled, first} {
		for i := range res.Rows {
			res.Rows[i] = append(res.Rows[i], -1)
		}
	}
	if !reflect.DeepEqual(second.Rows, want) {
		t.Fatal("an append to one reply's row wrote into another reply's rows")
	}
}

// TestCacheChargesCellsOnly: the cache's byte count is, over its
// entries, 8 bytes a cell plus fixed parts (the text, the columns, the
// entry) with no per-row term.
func TestCacheChargesCellsOnly(t *testing.T) {
	db, s := cachedDB()
	texts := []string{
		`MATCH (v:N) RETURN v`,
		`MATCH (v) RETURN count(v)`,
		`MATCH (v)-[:a]->(to) RETURN v, to`,
		`MATCH (v)-[:a]->(m)-[:b]->(to) RETURN v, m, to`,
	}
	var want int64
	for _, text := range texts {
		if _, err := db.Query("g", text); err != nil {
			t.Fatal(err)
		}
		v, hit, _ := db.Cache().Lookup(store.TextKey(s.StoreID(), text), s.Version(), nil)
		if !hit {
			t.Fatalf("%s: not cached", text)
		}
		a := v.(*answer)
		if a.rows == 0 {
			t.Fatalf("%s: no rows", text)
		}
		want += 8*int64(len(a.cells)) + int64(len(text)) + 96
		for _, c := range a.columns {
			want += int64(len(c)) + 16
		}
	}
	if st := db.Cache().Stats(); st.Entries != len(texts) || st.Bytes != want {
		t.Fatalf("%d entries charge %d bytes, want %d entries and %d bytes", st.Entries, st.Bytes, len(texts), want)
	}
}

// TestProfileBypassesResultCache: a PROFILE'd MATCH of a cached text is
// evaluated, renders its spans, and neither reads nor fills the cache.
func TestProfileBypassesResultCache(t *testing.T) {
	db, _ := cachedDB()
	text := sourcesQuery(0, 1)
	plain, err := db.Query("g", text)
	if err != nil {
		t.Fatal(err)
	}
	before := db.Cache().Stats()
	for range 2 {
		res, err := db.Query("g", "PROFILE "+text)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := sortedPairs(pairsFromRows(res.Rows)), sortedPairs(pairsFromRows(plain.Rows)); !pairsEqual(got, want) {
			t.Fatalf("PROFILE answered %v, want %v", got, want)
		}
		spans := strings.Join(res.Profile, "\n")
		for _, span := range []string{"query", "parse", "plan", "execute"} {
			if !strings.Contains(spans, span) {
				t.Fatalf("PROFILE span tree lacks %q:\n%s", span, spans)
			}
		}
	}
	if after := db.Cache().Stats(); after.Entries != before.Entries || after.Hits != before.Hits || after.Misses != before.Misses {
		t.Fatalf("PROFILE moved the cache: %+v → %+v", before, after)
	}
}

// TestCacheCountsMatchReadsOnly: writes, parse errors and reads of a
// graph that does not exist are not cache lookups; every MATCH read is
// one hit or one miss.
func TestCacheCountsMatchReadsOnly(t *testing.T) {
	db, _ := cachedDB()
	before := db.Cache().Stats()
	for _, stmt := range []struct{ graph, text string }{
		{"g", `CREATE (x:N)-[:a]->(y:N)`},
		{"g", `CREATE (x:N)-[:a]->(y:N)`},
		{"fresh", `CREATE (x:N)`},
		{"g", `MATCH (v RETURN v`},
		{"g", `MATCH (v RETURN v`},
		{"missing", `MATCH (v) RETURN v`},
	} {
		_, _ = db.Query(stmt.graph, stmt.text)
	}
	if after := db.Cache().Stats(); after.Hits != before.Hits || after.Misses != before.Misses {
		t.Fatalf("writes and failed statements moved hits %d → %d and misses %d → %d",
			before.Hits, after.Hits, before.Misses, after.Misses)
	}

	reads := []string{sourcesQuery(0), sourcesQuery(0), `MATCH (v:N) RETURN count(v)`, sourcesQuery(0), `MATCH (v:N) RETURN count(v)`}
	for _, text := range reads {
		if _, err := db.Query("g", text); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := db.Query("g", `CREATE (x:N)`); err != nil {
		t.Fatal(err)
	}
	for _, text := range reads[:3] {
		if _, err := db.Query("g", text); err != nil {
			t.Fatal(err)
		}
	}
	after := db.Cache().Stats()
	if got := after.Hits + after.Misses - before.Hits - before.Misses; got != 8 {
		t.Fatalf("8 MATCH reads counted as %d lookups: %+v", got, after)
	}
	// Two texts missed first; after the write the seek revalidated and
	// the label count missed.
	if hits := after.Hits - before.Hits; hits != 5 {
		t.Fatalf("%d hits, want 5: %+v", hits, after)
	}
}

// BenchmarkQueryCacheHit times one cached MATCH read through
// QueryContext: an exact hit of a few rows and of a dense-scan-sized
// answer (6000 rows), that hit through QueryCells (the server's entry,
// which cuts no row headers), and a revalidated hit — the first read of
// the text after a write that left its rows alone, which carries the
// path-pattern context over to the new version first.
func BenchmarkQueryCacheHit(b *testing.B) {
	text := sourcesQuery(0, 1)
	ctx := context.Background()
	exact := func(b *testing.B, query func(context.Context, string, string) (*QueryResult, error), text string) {
		if _, err := query(ctx, "g", text); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := query(ctx, "g", text); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("exact", func(b *testing.B) {
		db, _ := cachedDB()
		exact(b, db.QueryContext, text)
	})
	b.Run("exact-6000", func(b *testing.B) {
		db, _, _ := wideDB(b)
		exact(b, db.QueryContext, wideQuery)
	})
	b.Run("exact-6000-cells", func(b *testing.B) {
		db, _, _ := wideDB(b)
		exact(b, db.QueryCells, wideQuery)
	})
	b.Run("revalidated", func(b *testing.B) {
		db, s := cachedDB()
		if _, err := db.QueryContext(ctx, "g", text); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			// A property write publishes a version and changes no row.
			s.SetProp(0, "k", cypher.Value{Int: int64(i), IsInt: true})
			b.StartTimer()
			if _, err := db.QueryContext(ctx, "g", text); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		if st := db.Cache().Stats(); st.Revalidations != uint64(b.N) {
			b.Fatalf("%d of %d reads revalidated", st.Revalidations, b.N)
		}
	})
}

// denseScanDB is a database holding go-hierarchy@0.02, dense-scan's
// graph, as "g", with a result cache of maxBytes.
func denseScanDB(tb testing.TB, maxBytes int64) (*DB, *graph.Graph) {
	spec, err := dataset.ByName("go-hierarchy")
	if err != nil {
		tb.Fatal(err)
	}
	g := dataset.Generate(dataset.Scaled(spec, 0.02))
	db := New()
	db.SetPolicy(Policy{CacheMaxBytes: maxBytes})
	db.AddGraph("g", g)
	return db, g
}

// TestScanHoldsOnlyProbation: a dense-scan sweep, distinct chunk-10 G2
// texts whose answers nobody reads again, leaves the result cache
// holding at most probation's share plus one answer beside a repeated
// text, which keeps hitting throughout.
func TestScanHoldsOnlyProbation(t *testing.T) {
	// share is probation's eighth of the budget (store.probationMax).
	const budget, share = 4 << 20, 4 << 20 / 8
	db, g := denseScanDB(t, budget)
	perm := rand.New(rand.NewSource(1)).Perm(g.NumVertices())
	// answerBytes is what the cache charges for text's answer res, as
	// queryAt computes it.
	answerBytes := func(text string, ids []int, res *QueryResult) int64 {
		q, err := cypher.Parse(text)
		if err != nil {
			t.Fatal(err)
		}
		fp := &store.Footprint{Ctx: plan.CtxKey(q.PathPatterns), Sources: matrix.NewVectorFromIndices(g.NumVertices(), ids)}
		return resultBytes(&answer{columns: res.Columns, cells: res.Cells, rows: res.NumRows}, text, fp)
	}
	hot := g2Query(perm[:10])
	res, err := db.Query("g", hot)
	if err != nil {
		t.Fatal(err)
	}
	hotBytes := answerBytes(hot, perm[:10], res)
	var largest, scanned int64
	for lo := 10; lo+10 <= len(perm); lo += 10 {
		if lo%100 == 10 {
			// Every tenth text, the repeated one is read again: its
			// first repeat promotes it, and every later one hits.
			before := db.Cache().Stats()
			if _, err := db.Query("g", hot); err != nil {
				t.Fatal(err)
			}
			if st := db.Cache().Stats(); st.Hits != before.Hits+1 {
				t.Fatalf("after %d scanned texts the repeated text missed: %+v", lo/10-1, st)
			}
		}
		text := g2Query(perm[lo : lo+10])
		res, err := db.Query("g", text)
		if err != nil {
			t.Fatal(err)
		}
		b := answerBytes(text, perm[lo:lo+10], res)
		largest, scanned = max(largest, b), scanned+b
		if st := db.Cache().Stats(); st.Bytes-hotBytes > share+largest {
			t.Fatalf("after %d scanned texts the cache holds %d bytes beside the repeated text's %d, want at most probation's %d plus one answer (%d)",
				lo/10, st.Bytes-hotBytes, hotBytes, share, largest)
		}
	}
	if scanned < 2*budget {
		t.Fatalf("the sweep scanned only %d bytes of answers, not past the %d budget", scanned, budget)
	}
}

// BenchmarkCachedAnswersGC times one full collection with the default
// 64 MiB result cache after dense-scan answers (distinct chunk-10 G2
// reads of go-hierarchy@0.02, ~6000 rows each) have filled its
// probation segment until it evicts: answers nobody reads again hold
// probation's eighth of the budget, not the whole of it. It reports
// the answers and the MiB held: what the collector does with them is
// what every collection of a dense-scan server pays.
func BenchmarkCachedAnswersGC(b *testing.B) {
	db, g := denseScanDB(b, 64<<20)
	rng := rand.New(rand.NewSource(1))
	for db.Cache().Stats().Evictions == 0 {
		perm := rng.Perm(g.NumVertices())
		for lo := 0; lo+10 <= len(perm); lo += 10 {
			if _, err := db.Query("g", g2Query(perm[lo:lo+10])); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runtime.GC()
	}
	st := db.Cache().Stats()
	b.ReportMetric(float64(st.Entries), "answers")
	b.ReportMetric(float64(st.Bytes)/(1<<20), "MiB")
}
