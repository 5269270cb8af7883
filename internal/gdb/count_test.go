package gdb

import (
	"context"
	"math/rand"
	"strings"
	"testing"

	"mscfpq/internal/cypher"
	"mscfpq/internal/dataset"
	"mscfpq/internal/obs"
	"mscfpq/internal/store"
)

// TestCountRowsKeepsFootprint: a count CountRows answers is cached with
// its plan's footprint, so after a write that leaves its rows alone it
// is served as a revalidated hit, equal to the first answer.
func TestCountRowsKeepsFootprint(t *testing.T) {
	db, s := cachedDB()
	text := revalidateDecl + `MATCH (v)-/ ~S /->(to) WHERE id(v) IN [0, 1] RETURN count(to)`
	plan, err := db.Explain("g", text)
	if err != nil || !strings.Contains(plan, "CountRows(count(to)) over CFPQTraverse") {
		t.Fatalf("plan (err %v):\n%s", err, plan)
	}
	first, err := db.Query("g", text)
	if err != nil {
		t.Fatal(err)
	}
	// 0 reaches 4 by a a b b, 1 reaches 3 by a b.
	if len(first.Rows) != 1 || first.Rows[0][0] != 2 {
		t.Fatalf("count = %v, want [[2]]", first.Rows)
	}
	// A property write publishes a version and changes no row.
	if _, err := s.st.Update(func(tx *store.Tx) error {
		tx.SetProp(0, "k", cypher.Value{Int: 1, IsInt: true})
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	before := db.Cache().Stats()
	again, err := db.Query("g", text)
	if err != nil {
		t.Fatal(err)
	}
	if st := db.Cache().Stats(); st.Revalidations != before.Revalidations+1 || st.Misses != before.Misses {
		t.Fatalf("after the write: revalidations %d → %d, misses %d → %d, want one revalidated hit",
			before.Revalidations, st.Revalidations, before.Misses, st.Misses)
	}
	if len(again.Rows) != 1 || again.Rows[0][0] != 2 {
		t.Fatalf("revalidated count = %v, want [[2]]", again.Rows)
	}
	var fp *store.Footprint
	db.Cache().Lookup(store.TextKey(s.StoreID(), text), s.Snapshot().Version()+1, func(_ uint64, f *store.Footprint) bool {
		fp = f
		return false
	})
	if fp == nil || fp.Sources.NVals() != 2 || !fp.Sources.Get(0) || !fp.Sources.Get(1) {
		t.Fatalf("cached footprint %+v, want the sources {0, 1}", fp)
	}
}

// BenchmarkDenseColdStatement is the wire benchmark's dense-cold op in
// process: each op restores go-hierarchy@0.02 from its dump, as
// GRAPH.RESTORE does (untimed), and runs on it the G2 count statement of
// a hundred sources from a seeded permutation through QueryCells, the
// entry GRAPH.QUERY calls. Besides ns/op it reports the fixpoint rounds
// per op, which a change to the plan around the fixpoint must leave as
// they are.
func BenchmarkDenseColdStatement(b *testing.B) {
	spec, err := dataset.ByName("go-hierarchy")
	if err != nil {
		b.Fatal(err)
	}
	g := dataset.Generate(dataset.Scaled(spec, 0.02))
	db := New()
	db.SetPolicy(Policy{CacheMaxBytes: 64 << 20})
	db.AddGraph("g", g)
	dump, err := db.Dump("g")
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	ctx := context.Background()
	rounds := obs.CFPQRounds.Sum()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		if err := db.Restore("g", dump); err != nil {
			b.Fatal(err)
		}
		text := strings.Replace(g2Query(rng.Perm(g.NumVertices())[:100]), "RETURN v, to", "RETURN count(to)", 1)
		b.StartTimer()
		if res, err := db.QueryCells(ctx, "g", text); err != nil || res.NumRows != 1 {
			b.Fatalf("%d rows, %v", res.NumRows, err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(obs.CFPQRounds.Sum()-rounds)/float64(b.N), "rounds/op")
}

// BenchmarkSparseSweepStatement is the wire benchmark's sparse-sweep op
// in process: G1 statements over pathways through QueryCells, each from
// ten sources cut in turn from a seeded permutation of the vertices.
// Every 62 queries, one unit of the wire workload, the store is restored
// from its dump, as GRAPH.RESTORE does, and the next 620 sources of the
// permutation are cut into texts (both untimed); ten units use every
// source once, then a new permutation is drawn. Besides ns/op and
// allocs/op it reports the fixpoint rounds per op.
func BenchmarkSparseSweepStatement(b *testing.B) {
	const queries, chunk = 62, 10
	spec, err := dataset.ByName("pathways")
	if err != nil {
		b.Fatal(err)
	}
	g := dataset.Generate(dataset.Scaled(spec, 1))
	db := New()
	db.SetPolicy(Policy{CacheMaxBytes: 64 << 20})
	db.AddGraph("g", g)
	dump, err := db.Dump("g")
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	n := g.NumVertices()
	units := n / (queries * chunk)
	var perm []int
	texts := make([]string, queries)
	ctx := context.Background()
	rounds := obs.CFPQRounds.Sum()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := i % queries
		if q == 0 {
			b.StopTimer()
			unit := i / queries % units
			if unit == 0 {
				perm = rng.Perm(n)
			}
			for k := range texts {
				lo := (unit*queries + k) * chunk
				texts[k] = chunkQuery(declG1, perm[lo:lo+chunk])
			}
			if err := db.Restore("g", dump); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
		if _, err := db.QueryCells(ctx, "g", texts[q]); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(obs.CFPQRounds.Sum()-rounds)/float64(b.N), "rounds/op")
}
