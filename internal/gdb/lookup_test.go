package gdb

import (
	"context"
	"strings"
	"testing"

	"mscfpq/internal/cypher"
)

// hitAllocs bounds what an exact result-cache hit through QueryContext
// allocates: the key and the reply's result header. Parsing the
// statement alone costs dozens of allocations.
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
// QueryContext: an exact hit, and a revalidated hit — the first read of
// the text after a write that left its rows alone, which carries the
// path-pattern context over to the new version first.
func BenchmarkQueryCacheHit(b *testing.B) {
	text := sourcesQuery(0, 1)
	ctx := context.Background()
	b.Run("exact", func(b *testing.B) {
		db, _ := cachedDB()
		if _, err := db.QueryContext(ctx, "g", text); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := db.QueryContext(ctx, "g", text); err != nil {
				b.Fatal(err)
			}
		}
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
