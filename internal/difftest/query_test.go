package difftest

import (
	"testing"

	"mscfpq/internal/cypher"
	"mscfpq/internal/gen"
	"mscfpq/internal/graph"
)

// TestDifferentialQuery drives generated Cypher statements — PATH PATTERN
// declarations with recursion, quantifiers, inverse steps and node
// checks, applied forward and inverse, chained with relationships, with
// free, labeled, pinned or cyclic destinations — through the database
// and compares every reply with the pattern oracle, from the result
// cache as well, before and after a write.
func TestDifferentialQuery(t *testing.T) {
	failures, changed := 0, 0
	for i := 0; i < queryCases; i++ {
		seed := *seedFlag + int64(8_000_000+i)
		n, err := checkQuery(gen.NewPathQuery(seed, maxGraphVertices))
		if err != nil {
			t.Errorf("case seed %d (rerun: go test ./internal/difftest -run TestDifferentialQuery -seed=%d): %v", seed, *seedFlag, err)
			if failures++; failures >= 3 {
				t.Fatalf("stopping after %d failing cases", failures)
			}
		}
		changed += n
	}
	// A cache that served answers across the write unchecked would pass
	// if no write changed an answer.
	if changed == 0 && failures == 0 {
		t.Fatal("no write changed an oracle answer: the post-write check is vacuous")
	}
	t.Logf("writes changed %d statements' answers", changed)
}

// TestDifferentialQueryConcurrent sends the statements of generated
// cases from several goroutines at once: the path-pattern context and
// index they share must still give each its oracle answer. Run with
// -race (make diff-test).
func TestDifferentialQueryConcurrent(t *testing.T) {
	for i := 0; i < queryCases/10; i++ {
		seed := *seedFlag + int64(9_000_000+i)
		if err := CheckQueryConcurrent(gen.NewPathQuery(seed, maxGraphVertices), 3); err != nil {
			t.Fatalf("case seed %d (rerun: go test ./internal/difftest -run TestDifferentialQueryConcurrent -seed=%d): %v", seed, *seedFlag, err)
		}
	}
}

// TestDifferentialQueryBatchBoundary runs statements whose scans feed a
// path traverse 2 600 source records, more than two of its 1024-record
// batches, on a chain whose vertex labels are also edge labels.
func TestDifferentialQueryBatchBoundary(t *testing.T) {
	const n = 2600
	g := graph.New(n)
	for i := 0; i+1 < n; i++ {
		g.AddEdge(i, "a", i+1)
		if i%7 == 0 {
			g.AddEdge(i+1, "b", i)
		}
	}
	for v := 0; v < n; v += 3 {
		g.AddVertexLabel(v, "x")
	}
	for v := 0; v < n; v += 5 {
		g.AddVertexLabel(v, "a")
	}
	decl := `PATH PATTERN S = ()-/ :a [(:x) | :a (:a) | <:b ~S :b] /->() MATCH `
	pq := gen.PathQuery{G: g}
	for _, stmt := range []string{
		`(v)-/ ~S /->(to) RETURN v, to`,
		`(v)-/ :a [~S | :b] /->(to) RETURN count(to)`,
		`(v)<-/ ~S /-(to) RETURN v, to`,
		`(v)-[:a]->(m)-/ [(:a) | ~S]? /->(to:x) RETURN count(to)`,
		`(v)<-[:a|b_r]-(m:x)-->(to) RETURN count(to)`,
	} {
		q, err := cypher.Parse(decl + stmt)
		if err != nil {
			t.Fatal(err)
		}
		pq.Decls = q.PathPatterns
		pq.Add(q)
	}
	if err := CheckQuery(pq); err != nil {
		t.Fatal(err)
	}
}

// FuzzQuery explores the generated query space beyond the seeded corpus:
// every seed is one case of CheckQuery.
func FuzzQuery(f *testing.F) {
	for seed := int64(0); seed < 8; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		if err := CheckQuery(gen.NewPathQuery(seed, maxGraphVertices)); err != nil {
			t.Fatalf("case seed %d: %v", seed, err)
		}
	})
}
