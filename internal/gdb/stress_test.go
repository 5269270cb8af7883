package gdb

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"mscfpq/internal/cypher"
	"mscfpq/internal/exec"
	"mscfpq/internal/grammar"
	"mscfpq/internal/graph"
	"mscfpq/internal/oracle"
	"mscfpq/internal/store"
)

// The stress suite (ISSUE 7, satellite 1): N writers mutate a graph
// while M readers evaluate CFPQ queries against pinned versions. Every
// result must be byte-identical to the oracle's answer for the PINNED
// version — not whatever the graph looks like by the time the query
// finishes. Run under -race (make chaos) this also proves the
// lock-free pin → evaluate → unpin path is data-race clean.

// stressGrammar is a^n b^n, matching the edge labels the writers
// produce.
func stressGrammar(t testing.TB) *grammar.WCNF {
	t.Helper()
	g, err := grammar.ParseString("S -> a S b | a b")
	if err != nil {
		t.Fatal(err)
	}
	w, err := grammar.ToWCNF(g)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// stressSeed creates a small graph with a non-trivial a^n b^n answer
// set: an a-cycle feeding a b-cycle.
func stressSeed(t testing.TB, db *DB, name string) *GraphStore {
	t.Helper()
	if _, err := db.Query(name, `CREATE (a:N)-[:a]->(b:N), (b)-[:a]->(c:N), (c)-[:a]->(a), (a)-[:b]->(d:N), (d)-[:b]->(a)`); err != nil {
		t.Fatal(err)
	}
	st, err := db.Get(name)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func allVertices(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

func sortedPairs(ps [][2]int) [][2]int {
	out := append([][2]int(nil), ps...)
	oracle.SortPairs(out)
	return out
}

func pairsFromRows(rows [][]int64) [][2]int {
	out := make([][2]int, len(rows))
	for i, r := range rows {
		out[i] = [2]int{int(r[0]), int(r[1])}
	}
	return out
}

func pairsEqual(a, b [][2]int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestStressPinnedReadsUnderWrites is the linearizability-style check:
// concurrent CREATE writers (journal path) and direct store writers
// advance the version while readers pin snapshots and verify, per pin,
//
//   - versions are monotonic per reader,
//   - the snapshot is internally consistent (each update commits
//     exactly one edge, so edges == base + version — a torn read
//     breaks the equality),
//   - the Cypher answer equals the oracle's answer for the pinned
//     graph.
func TestStressPinnedReadsUnderWrites(t *testing.T) {
	db := New()
	db.SetPolicy(Policy{CacheMaxBytes: 1 << 20})
	w := stressGrammar(t)
	s := stressSeed(t, db, "g")
	// Reserve the store writers' vertex range (100–158) before any
	// writer runs, so CREATE never allocates a vertex inside it: a CREATE
	// edge that a store writer then adds again would not count as new,
	// and the edge accounting below would report a torn read.
	if _, err := s.st.Update(func(tx *store.Tx) error {
		tx.Graph().AddVertexLabel(199, "Reserved")
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	baseEdges := s.Snapshot().Graph().NumEdges()
	baseVersion := s.Snapshot().Version()

	const (
		createWriters = 2
		storeWriters  = 2
		writesPer     = 16
		readers       = 4
		readsPer      = 30
	)
	matchQuery := `
		PATH PATTERN S = ()-/ [:a ~S :b] | [:a :b] /->()
		MATCH (v)-/ ~S /->(to)
		RETURN v, to`

	var wg sync.WaitGroup
	// CREATE writers go through the full journal/commit path: one
	// statement = one version = one edge (plus two fresh nodes).
	for wr := 0; wr < createWriters; wr++ {
		wg.Add(1)
		go func(wr int) {
			defer wg.Done()
			for i := 0; i < writesPer; i++ {
				label := "a"
				if i%2 == 1 {
					label = "b"
				}
				if _, err := db.Query("g", fmt.Sprintf(`CREATE (x:W%d)-[:%s]->(y:W%d)`, wr, label, wr)); err != nil {
					t.Errorf("create writer %d: %v", wr, err)
					return
				}
			}
		}(wr)
	}
	// Store writers commit through Update directly, growing an a/b
	// chain in a reserved vertex range so every edge is fresh (exactly
	// one new edge per version) and the a^n b^n answer keeps changing.
	for wr := 0; wr < storeWriters; wr++ {
		wg.Add(1)
		go func(wr int) {
			defer wg.Done()
			r := 100 + 50*wr
			for i := 0; i < writesPer; i++ {
				k := i / 2
				if _, err := s.st.Update(func(tx *store.Tx) error {
					if i%2 == 0 {
						tx.Graph().AddEdge(r+k, "a", r+k+1)
					} else {
						tx.Graph().AddEdge(r+k+1, "b", r+k)
					}
					return nil
				}); err != nil {
					t.Errorf("store writer %d: %v", wr, err)
					return
				}
			}
		}(wr)
	}
	for rd := 0; rd < readers; rd++ {
		wg.Add(1)
		go func(rd int) {
			defer wg.Done()
			q, err := cypher.Parse(matchQuery)
			if err != nil {
				t.Errorf("reader %d: %v", rd, err)
				return
			}
			last := baseVersion
			for i := 0; i < readsPer; i++ {
				snap := s.Snapshot()
				v := snap.Version()
				if v < last {
					t.Errorf("reader %d: version went backwards %d -> %d", rd, last, v)
					return
				}
				last = v
				g := snap.Graph()
				if got, want := g.NumEdges(), baseEdges+int(v-baseVersion); got != want {
					t.Errorf("reader %d: torn read at version %d: %d edges, want %d", rd, v, got, want)
					return
				}
				want := sortedPairs(oracle.CFPQ(g, w).StartPairsFrom(allVertices(g.NumVertices())))

				run, cancel := exec.Options{}.Start()
				res, _, err := s.runMatchSnap(snap, q, run)
				cancel()
				if err != nil {
					t.Errorf("reader %d: match at version %d: %v", rd, v, err)
					return
				}
				if got := sortedPairs(pairsFromRows(res.Rows())); !pairsEqual(got, want) {
					t.Errorf("reader %d: version %d: match answer diverged from pinned oracle\n got %v\nwant %v", rd, v, got, want)
					return
				}
			}
		}(rd)
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	// The storm is over: the final version count is exact, and a
	// cache-served query agrees with the oracle on the final graph —
	// stale entries surviving invalidation would surface here.
	wantVersion := baseVersion + uint64((createWriters+storeWriters)*writesPer)
	if got := s.Snapshot().Version(); got != wantVersion {
		t.Fatalf("final version = %d, want %d", got, wantVersion)
	}
	g := s.Snapshot().Graph()
	want := sortedPairs(oracle.CFPQ(g, w).StartPairsFrom(allVertices(g.NumVertices())))
	for round := 0; round < 2; round++ { // second round is a cache hit
		res, err := db.Query("g", matchQuery)
		if err != nil {
			t.Fatal(err)
		}
		if got := sortedPairs(pairsFromRows(res.Rows)); !pairsEqual(got, want) {
			t.Fatalf("round %d: quiesced answer diverged from oracle\n got %v\nwant %v", round, got, want)
		}
	}
	if st := db.Cache().Stats(); st.Hits == 0 {
		t.Fatalf("stress run never hit the cache: %+v", st)
	}
}

// TestStressCacheCoherenceAcrossVersions drives the full QueryContext
// result-cache path while writes advance the graph: after every write
// the next query must see the new answer (version-keyed entries cannot
// serve stale data), and repeating it must hit the cache with the
// identical answer.
func TestStressCacheCoherenceAcrossVersions(t *testing.T) {
	db := New()
	db.SetPolicy(Policy{CacheMaxBytes: 1 << 20})
	w := stressGrammar(t)
	s := stressSeed(t, db, "g")
	matchQuery := `
		PATH PATTERN S = ()-/ [:a ~S :b] | [:a :b] /->()
		MATCH (v)-/ ~S /->(to)
		RETURN v, to`

	for i := 0; i < 12; i++ {
		g := s.Snapshot().Graph()
		want := sortedPairs(oracle.CFPQ(g, w).StartPairsFrom(allVertices(g.NumVertices())))
		cold, err := db.Query("g", matchQuery)
		if err != nil {
			t.Fatal(err)
		}
		warm, err := db.Query("g", matchQuery)
		if err != nil {
			t.Fatal(err)
		}
		if got := sortedPairs(pairsFromRows(cold.Rows)); !pairsEqual(got, want) {
			t.Fatalf("write %d: cold answer diverged\n got %v\nwant %v", i, got, want)
		}
		if got := sortedPairs(pairsFromRows(warm.Rows)); !pairsEqual(got, want) {
			t.Fatalf("write %d: warm answer diverged\n got %v\nwant %v", i, got, want)
		}
		// Extend the a/b chain through the seed cycle, changing the
		// answer set on most iterations.
		label := "a"
		if i%2 == 1 {
			label = "b"
		}
		if _, err := db.Query("g", fmt.Sprintf(`CREATE (x:C%d)-[:%s]->(y:C%d)`, i, label, i)); err != nil {
			t.Fatal(err)
		}
		if _, err := s.st.Update(func(tx *store.Tx) error {
			tx.Graph().AddEdge(0, label, tx.Graph().NumVertices()-1)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	st := db.Cache().Stats()
	if st.Hits == 0 || st.Invalidations == 0 {
		t.Fatalf("coherence run exercised no hits or no invalidations: %+v", st)
	}
}

// TestStressSourceRestrictedReadsUnderWrites serves source-restricted
// path queries from concurrent readers while a writer adds edges. The
// readers share one per-grammar index, so this combines partially
// processed source sets, the index's warm start into each new version
// and its lock. The writer only adds edges, so every answer lies
// between the oracle's answers at the versions pinned just before and
// just after the call, and every row starts at a requested source.
func TestStressSourceRestrictedReadsUnderWrites(t *testing.T) {
	// Six disjoint aⁿbⁿ gadgets: solving one source processes only its
	// own gadget, so a request often mixes processed and unprocessed
	// sources.
	const n = 24
	g := graph.New(n)
	for b := 0; b < n; b += 4 {
		g.AddEdge(b, "a", b+1)
		g.AddEdge(b+1, "a", b+2)
		g.AddEdge(b+2, "b", b+3)
		g.AddEdge(b+3, "b", b)
	}
	db := New()
	s := db.AddGraph("g", g)
	w := stressGrammar(t)

	stop := make(chan struct{})
	var writerWG sync.WaitGroup
	writerWG.Add(1)
	go func() {
		defer writerWG.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			_, _ = s.st.Update(func(tx *store.Tx) error {
				tx.Graph().AddEdge(i%n, "a", (i+2)%n)
				return nil
			})
			time.Sleep(2 * time.Millisecond)
		}
	}()

	var readerWG sync.WaitGroup
	errs := make(chan error, 6)
	for k := 0; k < 6; k++ {
		readerWG.Add(1)
		go func(k int) {
			defer readerWG.Done()
			for iter := 0; iter < 25; iter++ {
				src := []int{(4*k + iter) % n, (4*k + 3*iter + 1) % n}
				q := fmt.Sprintf(`PATH PATTERN S = ()-/ [:a ~S :b] | [:a :b] /->()
					MATCH (v)-/ ~S /->(to) WHERE id(v) IN [%d, %d] RETURN v, to`, src[0], src[1])
				before := s.Snapshot()
				res, err := db.QueryContext(context.Background(), "g", q)
				after := s.Snapshot()
				if err != nil {
					errs <- err
					return
				}
				got := map[[2]int]bool{}
				for _, p := range pairsFromRows(res.Rows) {
					if p[0] != src[0] && p[0] != src[1] {
						errs <- fmt.Errorf("reader %d: row %v outside the sources %v", k, p, src)
						return
					}
					got[p] = true
				}
				for _, p := range oracle.CFPQ(before.Graph(), w).StartPairsFrom(src) {
					if !got[p] {
						errs <- fmt.Errorf("reader %d: answer lost pair %v present at the pre-call version %d", k, p, before.Version())
						return
					}
				}
				hi := map[[2]int]bool{}
				for _, p := range oracle.CFPQ(after.Graph(), w).StartPairsFrom(src) {
					hi[p] = true
				}
				for p := range got {
					if !hi[p] {
						errs <- fmt.Errorf("reader %d: answer invented pair %v absent at the post-call version %d", k, p, after.Version())
						return
					}
				}
			}
		}(k)
	}
	done := make(chan struct{})
	go func() { readerWG.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("stress run wedged")
	}
	close(stop)
	writerWG.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
