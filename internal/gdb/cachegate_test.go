package gdb

import (
	"context"
	"math/rand"
	"sync"
	"testing"
	"time"

	"mscfpq/internal/dataset"
	"mscfpq/internal/graph"
)

// The result cache's acceptance gate (DESIGN.md §11): through
// QueryContext, a warm hit of a G1 PATH PATTERN statement on core@0.5
// must be at least cacheMinSpeedup times faster than its cold run on a
// freshly added store, whose path-pattern index is cold too. Cold and
// warm are per-mode minima over cacheTrials; a warm sample batches
// cacheWarmInner hits so the microsecond hit path is not lost in timer
// jitter.
const (
	cacheTrials     = 9
	cacheWarmInner  = 64
	cacheMinSpeedup = 10
)

// cacheGateDB returns a database with a 64 MiB result cache and
// core@0.5 added as "core", the graph, and a seeded permutation of its
// vertices, from which the gate cuts its source sets.
func cacheGateDB(t *testing.T) (*DB, *graph.Graph, []int) {
	t.Helper()
	spec, err := dataset.ByName("core")
	if err != nil {
		t.Fatal(err)
	}
	g := dataset.Generate(dataset.Scaled(spec, 0.5))
	db := New()
	db.SetPolicy(Policy{CacheMaxBytes: 64 << 20})
	db.AddGraph("core", g)
	return db, g, rand.New(rand.NewSource(2021)).Perm(g.NumVertices())
}

func TestCacheWarmHitGate(t *testing.T) {
	db, g, perm := cacheGateDB(t)
	ctx := context.Background()
	for _, size := range []int{1, 10, 100} {
		q := chunkQuery(declG1, perm[:size])
		var cold, warm time.Duration
		for trial := 0; trial < cacheTrials; trial++ {
			// A fresh store per trial: a new incarnation the cache holds
			// nothing for, and a cold path-pattern index.
			db.AddGraph("core", g)
			hits := db.Cache().Stats().Hits
			start := time.Now()
			res, err := db.QueryContext(ctx, "core", q)
			dCold := time.Since(start)
			if err != nil {
				t.Fatalf("%d sources, cold: %v", size, err)
			}
			if db.Cache().Stats().Hits != hits {
				t.Fatalf("%d sources: the cold run on a fresh store hit the cache", size)
			}
			rows := len(res.Rows)

			hits = db.Cache().Stats().Hits
			start = time.Now()
			for i := 0; i < cacheWarmInner; i++ {
				res, err := db.QueryContext(ctx, "core", q)
				if err != nil {
					t.Fatalf("%d sources, warm: %v", size, err)
				}
				if len(res.Rows) != rows {
					t.Fatalf("%d sources: a warm run answered %d rows, the cold run %d", size, len(res.Rows), rows)
				}
			}
			dWarm := time.Since(start) / cacheWarmInner
			if got := db.Cache().Stats().Hits - hits; got != cacheWarmInner {
				t.Fatalf("%d sources: %d of %d warm runs hit the cache", size, got, cacheWarmInner)
			}
			if trial == 0 || dCold < cold {
				cold = dCold
			}
			if trial == 0 || dWarm < warm {
				warm = dWarm
			}
		}
		warm = max(warm, time.Nanosecond)
		speedup := float64(cold) / float64(warm)
		t.Logf("%3d sources: cold %v, warm %v (%.1fx)", size, cold, warm, speedup)
		if speedup < cacheMinSpeedup {
			t.Errorf("%d sources: warm hit %v vs cold %v is %.1fx, want >= %dx", size, warm, cold, speedup, cacheMinSpeedup)
		}
	}
}

// TestCacheConcurrentReadersHit runs 1, 4 and 8 readers over three
// hundred-source texts the cache already holds: every read must hit.
func TestCacheConcurrentReadersHit(t *testing.T) {
	db, _, perm := cacheGateDB(t)
	ctx := context.Background()
	var texts []string
	for lo := 0; lo < 300; lo += 100 {
		texts = append(texts, chunkQuery(declG1, perm[lo:lo+100]))
		if _, err := db.QueryContext(ctx, "core", texts[len(texts)-1]); err != nil {
			t.Fatal(err)
		}
	}
	const reads = 200
	for _, readers := range []int{1, 4, 8} {
		before := db.Cache().Stats()
		errs := make([]error, readers)
		var wg sync.WaitGroup
		for r := 0; r < readers; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				for i := r; i < r+reads; i++ {
					if _, err := db.QueryContext(ctx, "core", texts[i%len(texts)]); err != nil {
						errs[r] = err
						return
					}
				}
			}(r)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				t.Fatalf("%d readers: %v", readers, err)
			}
		}
		st := db.Cache().Stats()
		if st.Misses != before.Misses || st.Hits-before.Hits != uint64(readers*reads) {
			t.Fatalf("%d readers: %d hits and %d misses over %d reads, want every read a hit",
				readers, st.Hits-before.Hits, st.Misses-before.Misses, readers*reads)
		}
	}
}
