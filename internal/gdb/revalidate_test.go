package gdb

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"mscfpq/internal/cypher"
	"mscfpq/internal/graph"
	"mscfpq/internal/obs"
	"mscfpq/internal/oracle"
	"mscfpq/internal/plan"
	"mscfpq/internal/store"
)

const revalidateDecl = `PATH PATTERN S = ()-/ [:a ~S :b] | [:a :b] /->() `

// revalidateGraph is two aⁿbⁿ gadgets, 0-a->1-a->2-b->3-b->4 and
// 10-a->11-b->12, every vertex labeled N.
func revalidateGraph() *graph.Graph {
	g := graph.New(13)
	g.AddEdge(0, "a", 1)
	g.AddEdge(1, "a", 2)
	g.AddEdge(2, "b", 3)
	g.AddEdge(3, "b", 4)
	g.AddEdge(10, "a", 11)
	g.AddEdge(11, "b", 12)
	for v := range 13 {
		g.AddVertexLabel(v, "N")
	}
	return g
}

// cacheProbe runs statements against one graph through queryAt, which
// looks the raw text up before parsing it, and reports how the result
// cache served each, checking every answer against the oracle at the
// version the statement was served at.
type cacheProbe struct {
	t  *testing.T
	db *DB
	s  *GraphStore
}

// cacheEvents is what the obs cache.* counters, which count each cache
// event once, counted since a registry snapshot. No test of this
// package runs in parallel, so the counts are the test's own.
type cacheEvents struct{ hits, misses, evictions, invalidations, revalidations int64 }

func eventsSince(before obs.Snapshot) cacheEvents {
	d := obs.Default.Snapshot().Sub(before)
	return cacheEvents{d["cache.hits"], d["cache.misses"], d["cache.evictions"],
		d["cache.invalidations"], d["cache.revalidations"]}
}

// outcome is how the cache served one statement.
type outcome string

const (
	exactHit    outcome = "exact hit"
	revalidated outcome = "revalidated hit"
	missed      outcome = "miss"
)

// read answers text at snap (the current version when nil) and checks
// the answer against the oracle at snap's version.
func (p cacheProbe) read(text string, snap *store.Snapshot) outcome {
	p.t.Helper()
	q, err := cypher.Parse(text)
	if err != nil {
		p.t.Fatal(err)
	}
	if snap == nil {
		snap = p.s.Snapshot()
	}
	before := obs.Default.Snapshot()
	res, err := p.db.queryAt(context.Background(), "g", text, p.s, snap, time.Now())
	if err != nil {
		p.t.Fatalf("%s: %v", text, err)
	}
	ev := eventsSince(before)
	if got, want := sortedPairs(pairsFromRows(plan.CutRows(res.Cells, res.NumRows))), wantPairs(p.t, snap.Graph(), q); !pairsEqual(got, want) {
		p.t.Fatalf("version %d: %s\n got %v\nwant %v", snap.Version(), text, got, want)
	}
	switch {
	case ev.revalidations > 0:
		return revalidated
	case ev.hits > 0:
		return exactHit
	}
	return missed
}

// expect reads text at snap and fails unless the cache served it as want.
func (p cacheProbe) expect(text string, snap *store.Snapshot, want outcome) {
	p.t.Helper()
	if got := p.read(text, snap); got != want {
		p.t.Fatalf("%s: served as %s, want %s", text, got, want)
	}
}

// wantPairs is the oracle's answer to a revalidation-test statement on
// g: the (v, to) pairs of S from the listed ids that exist, from the
// N-labeled vertices for a label scan, or from every vertex.
func wantPairs(t *testing.T, g *graph.Graph, q *cypher.Query) [][2]int {
	t.Helper()
	var src []int
	switch where := q.Where.(type) {
	case cypher.IDIn:
		for _, id := range where.IDs {
			if int(id) < g.NumVertices() {
				src = append(src, int(id))
			}
		}
	case nil:
		src = allVertices(g.NumVertices())
		if labels := q.Match.Patterns[0].Nodes[0].Labels; len(labels) > 0 {
			src = g.VertexSet(labels[0]).Ints()
		}
	default:
		t.Fatalf("unexpected WHERE %v", where)
	}
	return sortedPairs(oracle.CFPQ(g, stressGrammar(t)).StartPairsFrom(src))
}

func sourcesQuery(ids ...int) string {
	list := strings.Trim(strings.Join(strings.Fields(fmt.Sprint(ids)), ", "), "[]")
	return revalidateDecl + `MATCH (v)-/ ~S /->(to) WHERE id(v) IN [` + list + `] RETURN v, to`
}

// TestPinnedReaderBuildsPrivateContext: a reader pinned behind the
// version its declaration set's slot has moved to gets a private cold
// context, which gdb.ctx.private_builds counts once, and answers at its
// own version exactly as a database that never saw the write does.
func TestPinnedReaderBuildsPrivateContext(t *testing.T) {
	db := New() // no result cache: the pinned read evaluates
	p := cacheProbe{t: t, db: db, s: db.AddGraph("g", revalidateGraph())}
	text := sourcesQuery(0, 1)
	p.expect(text, nil, missed)
	pinned := p.s.Snapshot()
	uncached := New()
	uncached.AddGraph("g", pinned.Graph())
	want, err := uncached.Query("g", text)
	if err != nil {
		t.Fatal(err)
	}
	// 1-a->2-b->12 gives source 1 a new row, so the versions differ.
	if _, err := p.s.st.Update(func(tx *store.Tx) error {
		tx.Graph().AddEdge(2, "b", 12)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	p.expect(text, nil, missed) // carries the slot past the pinned version

	builds := obs.GdbCtxPrivateBuilds.Value()
	res, err := db.queryAt(context.Background(), "g", text, p.s, pinned, time.Now())
	if err != nil {
		t.Fatal(err)
	}
	if got := obs.GdbCtxPrivateBuilds.Value() - builds; got != 1 {
		t.Fatalf("gdb.ctx.private_builds rose by %d, want 1", got)
	}
	if got, want := sortedPairs(pairsFromRows(plan.CutRows(res.Cells, res.NumRows))), sortedPairs(pairsFromRows(want.Rows)); !pairsEqual(got, want) {
		t.Fatalf("pinned reader answered %v, the uncached database %v", got, want)
	}
}

// TestStressCacheRevalidationAcrossWrites walks the result cache's
// cross-version rules: an id-seek answer of a declared pattern survives
// a write that grows the graph apart (a CREATE), as a hit at the newer
// version and at an older one, and misses once a write links an old
// vertex (Store.Update), whether or not its own rows changed, or creates
// an id it names; label and all-node scans miss after any write; a
// reader pinned behind a newer entry gets its own version's answer
// without displacing the entry. Readers then race a writer, each answer
// checked against the oracle.
func TestStressCacheRevalidationAcrossWrites(t *testing.T) {
	start := obs.Default.Snapshot()
	db := New()
	db.SetPolicy(Policy{CacheMaxBytes: 1 << 20})
	p := cacheProbe{t: t, db: db, s: db.AddGraph("g", revalidateGraph())}
	var (
		qA     = sourcesQuery(0, 1)
		qB     = sourcesQuery(10)
		qNew   = sourcesQuery(0, 20)
		qAll   = revalidateDecl + `MATCH (v)-/ ~S /->(to) RETURN v, to`
		qLabel = revalidateDecl + `MATCH (v:N)-/ ~S /->(to) RETURN v, to`
	)
	all := []string{qA, qB, qNew, qAll, qLabel}
	for _, q := range all {
		p.expect(q, nil, missed)
		p.expect(q, nil, exactHit)
	}
	v0 := p.s.Snapshot()

	// A CREATE links only the vertices it creates: the id-seek answers
	// of existing vertices survive; scans, and the seek that names an id
	// it does not have yet, miss.
	if _, err := db.Query("g", `CREATE (x:N)-[:a]->(y:N)`); err != nil {
		t.Fatal(err)
	}
	p.expect(qA, nil, revalidated)
	p.expect(qB, nil, revalidated)
	p.expect(qNew, nil, missed)
	p.expect(qAll, nil, missed)
	p.expect(qLabel, nil, missed)
	// The revalidated entry is restamped to the newer version; a reader
	// at the older one is served by revalidation too.
	p.expect(qA, nil, exactHit)
	p.expect(qA, v0, revalidated)
	// A seek of the vertex the CREATE made serves no reader that
	// predates it.
	qMade := sourcesQuery(0, 13)
	p.expect(qMade, nil, missed)
	p.expect(qMade, v0, missed)

	// An edge from an old vertex (1-a->2-b->12 is a new S path) changes
	// qA's rows and leaves qB's alone; both miss.
	if _, err := p.s.st.Update(func(tx *store.Tx) error {
		tx.Graph().AddEdge(2, "b", 12)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for _, q := range all[1:] {
		p.expect(q, nil, missed)
	}
	p.expect(qA, nil, missed)

	// A CREATE that brings id 20 into existence, with an S path from it.
	// qNew names 20, so its entries serve their own version only.
	p.expect(qNew, nil, exactHit)
	if _, err := db.Query("g", `CREATE (f1:N), (f2:N), (f3:N), (f4:N), (f5:N), (s:N)-[:a]->(m:N)-[:b]->(e:N)`); err != nil {
		t.Fatal(err)
	}
	if n := p.s.Snapshot().Graph().NumVertices(); n != 23 {
		t.Fatalf("graph has %d vertices, want 23", n)
	}
	p.expect(qNew, nil, missed)
	p.expect(qA, nil, revalidated)

	// A reader pinned behind a newer entry across a touching write gets
	// its own version's answer, and leaves the newer entry in place.
	pinned := p.s.Snapshot()
	p.expect(qB, pinned, revalidated)
	if _, err := p.s.st.Update(func(tx *store.Tx) error {
		tx.Graph().AddEdge(2, "b", 13)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	p.expect(qA, nil, missed)
	p.expect(qA, pinned, missed)
	p.expect(qA, nil, exactHit)
	p.expect(qB, nil, missed)
	p.expect(qB, pinned, missed)
	p.expect(qB, nil, exactHit)

	// Readers race a writer that adds vertices and, now and then, an
	// edge into a gadget. The answer of a statement lies between the
	// oracle's at the versions pinned just before and just after it.
	const readers, reads = 4, 30
	stop := make(chan struct{})
	var writer sync.WaitGroup
	writer.Add(1)
	go func() {
		defer writer.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if i%3 == 2 {
				_, _ = p.s.st.Update(func(tx *store.Tx) error {
					tx.Graph().AddEdge(11, "b", 14+i%9)
					return nil
				})
			} else if _, err := db.Query("g", `CREATE (x:N)-[:a]->(y:N)`); err != nil {
				t.Error(err)
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()
	errs := make(chan error, readers)
	var wg sync.WaitGroup
	for r := range readers {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(r)))
			texts := []string{qA, qB, sourcesQuery(1, 10), qAll}
			for range reads {
				text := texts[rng.Intn(len(texts))]
				q, err := cypher.Parse(text)
				if err != nil {
					errs <- err
					return
				}
				lo := p.s.Snapshot()
				res, err := db.Query("g", text)
				hi := p.s.Snapshot()
				if err != nil {
					errs <- err
					return
				}
				got := map[[2]int]bool{}
				for _, pr := range pairsFromRows(res.Rows) {
					got[pr] = true
				}
				for _, pr := range wantPairs(t, lo.Graph(), q) {
					if !got[pr] {
						errs <- fmt.Errorf("%s: lost %v, present at version %d", text, pr, lo.Version())
						return
					}
					delete(got, pr)
				}
				upper := map[[2]int]bool{}
				for _, pr := range wantPairs(t, hi.Graph(), q) {
					upper[pr] = true
				}
				for pr := range got {
					if !upper[pr] {
						errs <- fmt.Errorf("%s: invented %v, absent at version %d", text, pr, hi.Version())
						return
					}
				}
			}
		}(r)
	}
	wg.Wait()
	close(stop)
	writer.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if ev := eventsSince(start); ev.revalidations == 0 {
		t.Fatalf("no hit was served across versions: %+v", ev)
	}
}

// TestPinnedReaderServedPastLaterTouchingWrite: whether an answer
// serves another version reads the stamps of the two versions alone. A
// reader pinned after a CREATE is served the answer computed before it,
// though a write that links an old vertex has landed since; the
// writer's version misses, and so does the pinned reader once the
// answer is recomputed there.
func TestPinnedReaderServedPastLaterTouchingWrite(t *testing.T) {
	db, s := cachedDB()
	p := cacheProbe{t: t, db: db, s: s}
	text := sourcesQuery(0, 1)
	p.expect(text, nil, missed)
	if _, err := db.Query("g", `CREATE (x:N)-[:a]->(y:N)`); err != nil {
		t.Fatal(err)
	}
	pinned := s.Snapshot()
	// 1-a->2-b->12 gives source 1 a new row.
	if _, err := s.st.Update(func(tx *store.Tx) error {
		tx.Graph().AddEdge(2, "b", 12)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	p.expect(text, pinned, revalidated)
	p.expect(text, nil, missed)
	p.expect(text, pinned, missed)
}

// TestCreateGrowsApart: every CREATE shape links only the vertices it
// creates, so no CREATE moves the store's Touched stamp, not even one
// that fails half-way. A Store.Update that links an old vertex or
// labels one moves it to its own version; one that sets a property
// does not.
func TestCreateGrowsApart(t *testing.T) {
	db := New()
	s := db.AddGraph("g", revalidateGraph())
	for _, c := range []struct{ text, fails string }{
		{text: `CREATE (x:N)-[:a]->(y:N)`},
		{text: `CREATE (x)-[:a]->(y), (z:N)-[:b]->(w), (u)`},
		{text: `CREATE (x:N)-[:a]->(y:N), (z:N)-[:b]->(x), (x)-[:a]->(x)`},
		{text: `CREATE (x:N)<-[:a]-(y:M)-[:b]->(z)`},
		{text: `CREATE (x:N:M {name: 'n', k: 3})-[:a]->(y {k: 4})`},
		{text: `CREATE (x:N)-[:a]->(y:N), (z:N)-[:a|b]->(w:N)`, fails: "exactly one type"},
	} {
		before := s.Snapshot()
		_, err := db.Query("g", c.text)
		if c.fails == "" && err != nil || c.fails != "" && (err == nil || !strings.Contains(err.Error(), c.fails)) {
			t.Fatalf("%s: error %v, want %q", c.text, err, c.fails)
		}
		after := s.Snapshot()
		if after.Version() != before.Version()+1 || after.Touched() != 0 {
			t.Fatalf("%s: version %d → %d, Touched %d, want one version and Touched 0", c.text, before.Version(), after.Version(), after.Touched())
		}
	}
	n := s.Snapshot().Graph().NumVertices()
	for _, c := range []struct {
		name  string
		write func(tx *store.Tx)
		moves bool
	}{
		{"property", func(tx *store.Tx) { tx.SetProp(0, "k", cypher.Value{Int: 1, IsInt: true}) }, false},
		{"old to new edge", func(tx *store.Tx) { tx.Graph().AddEdge(4, "a", n) }, true},
		{"new to old edge", func(tx *store.Tx) { tx.Graph().AddEdge(n+1, "b", 0) }, true},
		{"old to old edge", func(tx *store.Tx) { tx.Graph().AddEdge(4, "a", 10) }, true},
		{"label on old", func(tx *store.Tx) { tx.Graph().AddVertexLabel(3, "M") }, true},
	} {
		prior := s.Snapshot().Touched()
		snap, err := s.st.Update(func(tx *store.Tx) error {
			c.write(tx)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		want := prior
		if c.moves {
			want = snap.Version()
		}
		if snap.Touched() != want {
			t.Fatalf("%s: Touched %d at version %d, want %d", c.name, snap.Touched(), snap.Version(), want)
		}
	}
}
