// Package gdb is the in-memory graph database engine — the slice of
// RedisGraph the paper extends: matrix-backed graph storage, the Cypher
// front end (internal/cypher), execution-plan building and evaluation
// (internal/plan) with full path-pattern support, and graph management.
// The RESP server in internal/resp exposes it over the wire.
package gdb

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"mscfpq/internal/cypher"
	"mscfpq/internal/exec"
	"mscfpq/internal/fault"
	"mscfpq/internal/graph"
	"mscfpq/internal/obs"
	"mscfpq/internal/plan"
	"mscfpq/internal/store"
)

// DB is a named collection of graphs, safe for concurrent use. Queries
// evaluate lock-free against pinned snapshots (internal/store); writes
// are serialized per graph and by the durability commit path.
type DB struct {
	mu     sync.RWMutex
	graphs map[string]*GraphStore // guarded by mu

	polMu  sync.RWMutex
	policy Policy // guarded by polMu

	// cache is the query-result cache, shared by all graphs of the
	// database; set once by newDB, immutable afterwards
	// (the cache is internally synchronized). Disabled until a policy
	// sets CacheMaxBytes.
	cache *store.Cache

	// slowLog records slow and aborted queries for the SLOWLOG command;
	// set once by New, immutable afterwards (the ring is internally
	// synchronized).
	slowLog *obs.SlowLog

	// dur is the crash-safety layer, nil for in-memory databases (New);
	// set once by Open before the DB is shared, immutable afterwards.
	dur *durability

	// replicaSrc is the leader address when this database is a read-only
	// replica ("" / nil = leader). Atomic so the hot commit path reads it
	// without a lock; only the replication loop stores it.
	replicaSrc atomic.Pointer[string]
}

// slowLogCapacity bounds the slow-query ring (matches the Redis
// slowlog-max-len default).
const slowLogCapacity = 128

// New returns an empty database.
func New() *DB {
	return &DB{
		graphs:  map[string]*GraphStore{},
		cache:   store.NewCache(0),
		slowLog: obs.NewSlowLog(slowLogCapacity),
	}
}

// SlowLog exposes the slow-query ring (never nil).
func (db *DB) SlowLog() *obs.SlowLog { return db.slowLog }

// Cache exposes the query-result cache (never nil; disabled by
// default — SetPolicy with a CacheMaxBytes enables it).
func (db *DB) Cache() *store.Cache { return db.cache }

// GraphStore couples an epoch-versioned graph store (immutable
// snapshots + node properties) with a cache of path-pattern contexts,
// so repeated queries with the same PATH PATTERN declarations share one
// Algorithm 3 index (the paper's motivating scenario for the optimized
// multiple-source algorithm). Queries pin a snapshot and evaluate
// against it without holding any lock; writes publish new versions
// without waiting for readers.
type GraphStore struct {
	st *store.Store

	ctxMu    sync.Mutex
	ctxCache map[string]*ctxSlot // guarded by ctxMu
}

// ctxSlot holds the path-pattern context of one declaration set. Its
// lock serializes carrying the context over to a newer version
// (cfpq.NewIndexWarm clones the index's relations), so that neither
// other declaration sets nor readers at the cached version wait for it;
// cur is read without the lock.
type ctxSlot struct {
	mu  sync.Mutex
	cur atomic.Pointer[cachedCtx]
}

// cachedCtx pairs a prepared path context with the snapshot version it
// was built against.
//
// immutable after publish (enforced by the snapfreeze analyzer): a
// published entry is read without ctxSlot.mu, so carrying the context
// over allocates a fresh entry instead of rewriting this one.
type cachedCtx struct {
	ctx     *plan.PathCtx
	version uint64
}

// FPCtxWarm fails carrying a cached path-pattern context over to a
// newer version, so the context is rebuilt cold.
const FPCtxWarm = "gdb.ctx.warm"

var _ = fault.Declare(FPCtxWarm)

// NewGraphStore wraps an existing graph (no properties) as version 0.
// The graph is adopted by the store: seed it fully before the first
// versioned write, or mutate through queries.
func NewGraphStore(g *graph.Graph) *GraphStore {
	return &GraphStore{
		st:       store.New(g),
		ctxCache: map[string]*ctxSlot{},
	}
}

// Snapshot pins the current version for lock-free evaluation.
func (s *GraphStore) Snapshot() *store.Snapshot { return s.st.Pin() }

// StoreID returns the process-unique identity of the backing store
// (part of every cache key).
func (s *GraphStore) StoreID() uint64 { return s.st.ID() }

// slot returns the context slot of a declaration set, creating it when
// create is set; nil otherwise.
func (s *GraphStore) slot(key string, create bool) *ctxSlot {
	s.ctxMu.Lock()
	defer s.ctxMu.Unlock()
	sl := s.ctxCache[key]
	if sl == nil && create {
		sl = &ctxSlot{}
		s.ctxCache[key] = sl
	}
	return sl
}

// pathCtxFor returns a path-pattern context for the query's
// declarations, evaluated against the pinned snapshot. The cache keeps
// one context per declaration set at the newest version seen: an exact
// version match is reused outright; a context from an OLDER version is
// carried over into the snapshot's version (cfpq.NewIndexWarm: the
// write path only adds edges and vertices, so the accumulated facts
// stay true, and the processed rows too when the write grew the graph
// apart); a reader pinned BEHIND the cached version builds a private
// context without disturbing the cache. Queries without declarations
// always get a fresh empty context (cheap).
func (s *GraphStore) pathCtxFor(snap *store.Snapshot, q *cypher.Query) (*plan.PathCtx, error) {
	if len(q.PathPatterns) == 0 {
		return plan.NewPathCtx(snap.Graph(), nil)
	}
	sl := s.slot(plan.CtxKey(q.PathPatterns), true)
	if c := sl.cur.Load(); c != nil && c.version == snap.Version() {
		return c.ctx, nil
	}
	c, err := sl.advance(snap, q.PathPatterns)
	if err != nil {
		return nil, err
	}
	if c.version > snap.Version() {
		// The cache moved past this reader's pinned version; serve it a
		// private context and leave the cache at the newer one.
		obs.GdbCtxPrivateBuilds.Inc()
		return plan.NewPathCtx(snap.Graph(), q.PathPatterns)
	}
	return c.ctx, nil
}

// advance brings the slot's context up to the snapshot's version, unless
// it is there or past it already, and returns the slot's context, which
// may be newer than the snapshot. An empty slot gets a cold build.
func (sl *ctxSlot) advance(snap *store.Snapshot, pats []cypher.NamedPathPattern) (*cachedCtx, error) {
	v := snap.Version()
	if c := sl.cur.Load(); c != nil && c.version >= v {
		return c, nil
	}
	sl.mu.Lock()
	defer sl.mu.Unlock()
	c := sl.cur.Load()
	switch {
	case c != nil && c.version >= v:
		return c, nil
	case c != nil:
		next, err := carry(c, snap)
		if err == nil {
			sl.cur.Store(next)
			return next, nil
		}
		// Carrying failed (shouldn't happen along a version lineage):
		// rebuild cold below.
		obs.GdbCtxColdRebuilds.Inc()
	}
	ctx, err := plan.NewPathCtx(snap.Graph(), pats)
	if err != nil {
		return nil, err
	}
	c = &cachedCtx{ctx: ctx, version: v}
	sl.cur.Store(c)
	return c, nil
}

// carry returns c carried over to the snapshot's version.
func carry(c *cachedCtx, snap *store.Snapshot) (*cachedCtx, error) {
	if err := fault.Inject(FPCtxWarm); err != nil {
		return nil, err
	}
	ctx, err := c.ctx.WarmSuccessor(snap.Graph())
	if err != nil {
		return nil, err
	}
	return &cachedCtx{ctx: ctx, version: snap.Version()}, nil
}

// unchanged reports whether the rows fp names are the same at version
// at and at the snapshot's: no write between the two failed to grow the
// graph apart, so the rows of every vertex that existed at the older
// one stayed as they were, and every source exists at the snapshot.
// The store's current Touched stamp bounds every write up to both
// versions, so it refuses across a touching write past them too.
func (s *GraphStore) unchanged(snap *store.Snapshot, at uint64, fp *store.Footprint) bool {
	if s.st.Pin().Touched() > min(at, snap.Version()) {
		return false
	}
	idx := fp.Sources.Indices()
	return len(idx) == 0 || int(idx[len(idx)-1]) < snap.Graph().NumVertices()
}

// Graph exposes the current version's graph. Read-only once the store
// is serving queries: direct mutation bypasses versioning (copy-on-write
// keeps older snapshots intact, but cached contexts and query results
// keyed by version would go stale). Mutating it is safe only while
// seeding a store that nothing has queried yet.
func (s *GraphStore) Graph() *graph.Graph { return s.st.Pin().Graph() }

// PropEquals implements plan.PropStore against the current version.
func (s *GraphStore) PropEquals(v int, key string, val cypher.Value) bool {
	return s.st.Pin().PropEquals(v, key, val)
}

// QueryResult is the outcome of one statement.
type QueryResult struct {
	Columns []string
	// Cells holds a MATCH answer's rows back to back, row-major: NumRows
	// rows of len(Columns) cells. The array may be shared with the
	// result cache and with other results: read it, never write it.
	Cells   []int64
	NumRows int
	// Rows is Cells cut into one slice per row: filled by QueryContext,
	// nil from QueryCells.
	Rows [][]int64
	// Write statistics (CREATE).
	NodesCreated int
	EdgesCreated int
	// Profile holds the rendered execution span tree of a
	// "PROFILE MATCH ..." statement (nil otherwise).
	Profile []string
}

// AddGraph registers a pre-built graph under a name, replacing any
// existing graph with that name.
func (db *DB) AddGraph(name string, g *graph.Graph) *GraphStore {
	s := NewGraphStore(g)
	db.putStore(name, s)
	return s
}

// putStore installs s under name, replacing any store there: the apply
// of GRAPH.RESTORE, live, in recovery and on a follower. The replaced
// store's cached results can never be keyed as the new store's (fresh
// store id), but they are dropped to free budget.
func (db *DB) putStore(name string, s *GraphStore) {
	db.mu.Lock()
	old := db.graphs[name]
	db.graphs[name] = s
	db.mu.Unlock()
	if old != nil {
		db.cache.DropStore(old.StoreID())
	}
}

// dropStore removes the store under name, with its cached results, and
// reports whether there was one: the apply of GRAPH.DELETE, live, in
// recovery and on a follower.
func (db *DB) dropStore(name string) bool {
	db.mu.Lock()
	old, ok := db.graphs[name]
	delete(db.graphs, name)
	db.mu.Unlock()
	if ok {
		db.cache.DropStore(old.StoreID())
	}
	return ok
}

// Get returns the named graph store.
func (db *DB) Get(name string) (*GraphStore, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	s, ok := db.graphs[name]
	if !ok {
		return nil, errNoGraph(name)
	}
	return s, nil
}

func errNoGraph(name string) error { return fmt.Errorf("gdb: graph %q does not exist", name) }

// Delete removes a graph; it reports whether it existed. On a durable
// database the deletion is journaled before it is applied; a non-nil
// error means the journal append failed and the graph was NOT removed.
func (db *DB) Delete(name string) (bool, error) {
	// Fast path: skip journaling deletes of graphs that don't exist.
	// The check is advisory — the authoritative answer comes from the
	// re-check inside the serialized apply below, so two concurrent
	// deletes of the same graph cannot both report success. A delete
	// journaled for a graph that raced away is harmless: replay of the
	// 'D' record is idempotent.
	db.mu.RLock()
	_, ok := db.graphs[name]
	db.mu.RUnlock()
	if !ok {
		return false, nil
	}
	var existed bool
	if err := db.commit(journalOp{op: opDelete, name: name}, func() { existed = db.dropStore(name) }); err != nil {
		return false, err
	}
	return existed, nil
}

// List returns the sorted graph names.
func (db *DB) List() []string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	out := make([]string, 0, len(db.graphs))
	for n := range db.graphs {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Query parses and executes a statement against the named graph.
// CREATE statements create the graph on first use; MATCH statements
// require it to exist. The database policy (timeouts, budget) applies;
// use QueryContext to additionally bound the query by a caller context.
func (db *DB) Query(name, src string) (*QueryResult, error) {
	return db.QueryContext(context.Background(), name, src)
}

// Explain parses and plans a MATCH statement, returning the plan text.
func (db *DB) Explain(name, src string) (string, error) {
	q, err := cypher.Parse(src)
	if err != nil {
		return "", err
	}
	if q.Match == nil {
		return "", fmt.Errorf("gdb: EXPLAIN requires a MATCH query")
	}
	s, err := db.Get(name)
	if err != nil {
		return "", err
	}
	snap := s.Snapshot()
	env := plan.NewEnv(snap.Graph(), nil, snap)
	p, err := plan.Build(q, env)
	if err != nil {
		return "", err
	}
	return p.Explain(), nil
}

// Stats summarizes the named graph: vertices, edges, and per-label
// counts (the GRAPH.STATS command).
func (db *DB) Stats(name string) ([]string, error) {
	s, err := db.Get(name)
	if err != nil {
		return nil, err
	}
	g := s.Snapshot().Graph()
	st := g.Stats()
	out := []string{
		fmt.Sprintf("Vertices: %d", st.Vertices),
		fmt.Sprintf("Edges: %d", st.Edges),
	}
	labels := make([]string, 0, len(st.ByLabel))
	for l := range st.ByLabel {
		labels = append(labels, l)
	}
	sort.Strings(labels)
	for _, l := range labels {
		out = append(out, fmt.Sprintf("Label %s: %d", l, st.ByLabel[l]))
	}
	for _, l := range g.VertexLabels() {
		out = append(out, fmt.Sprintf("Vertex label %s: %d", l, g.VertexSet(l).NVals()))
	}
	return out, nil
}

// prepare plans a MATCH query against a pinned snapshot, sharing the
// cached path-pattern context of its declarations.
func (s *GraphStore) prepare(snap *store.Snapshot, q *cypher.Query, run *exec.Run) (*plan.Plan, error) {
	planSpan := run.StartSpan(obs.SpanPlan)
	defer planSpan.End()
	ctx, err := s.pathCtxFor(snap, q)
	if err != nil {
		return nil, err
	}
	return plan.BuildWithCtx(q, plan.NewEnv(snap.Graph(), nil, snap), ctx)
}

// runMatchSnap evaluates a MATCH query against a pinned snapshot. No
// lock is held: concurrent writes publish newer versions without
// affecting this evaluation, and the result is exactly the answer for
// the snapshot's version. It also returns the plan's footprint
// (plan.Plan.Footprint), nil when the plan reads more than the rows of
// one declared path pattern.
func (s *GraphStore) runMatchSnap(snap *store.Snapshot, q *cypher.Query, run *exec.Run) (*plan.ResultSet, *store.Footprint, error) {
	p, err := s.prepare(snap, q, run)
	if err != nil {
		return nil, nil, err
	}
	execSpan := run.StartSpan(obs.SpanExecute)
	rs, err := p.ExecuteWith(exec.WithRun(run))
	execSpan.End()
	if err != nil {
		return nil, nil, err
	}
	var fp *store.Footprint
	if src, ok := p.Footprint(); ok {
		fp = &store.Footprint{Sources: src}
	}
	return rs, fp, nil
}

func (db *DB) runCreate(name string, q *cypher.Query) (*QueryResult, error) {
	db.mu.Lock()
	s, ok := db.graphs[name]
	if !ok {
		s = NewGraphStore(graph.New(0))
		db.graphs[name] = s
	}
	db.mu.Unlock()

	res := &QueryResult{}
	_, err := s.st.Update(func(tx *store.Tx) error {
		g := tx.Graph()
		bound := map[string]int{}
		newNode := func(n cypher.NodePattern) int {
			if n.Var != "" {
				if v, ok := bound[n.Var]; ok {
					return v
				}
			}
			v := g.NumVertices()
			// Materialize the vertex even when it has no labels.
			if len(n.Labels) == 0 {
				g.AddVertexLabel(v, "_node")
			}
			for _, l := range n.Labels {
				g.AddVertexLabel(v, l)
			}
			for _, p := range n.Props {
				tx.SetProp(v, p.Key, p.Val)
			}
			if n.Var != "" {
				bound[n.Var] = v
			}
			res.NodesCreated++
			return v
		}
		for _, pat := range q.Create.Patterns {
			ids := make([]int, len(pat.Nodes))
			for i, n := range pat.Nodes {
				ids[i] = newNode(n)
			}
			for i, conn := range pat.Connections {
				rel, ok := conn.(cypher.RelPattern)
				if !ok {
					return fmt.Errorf("gdb: CREATE supports only relationship patterns")
				}
				if len(rel.Types) != 1 {
					return fmt.Errorf("gdb: CREATE relationships need exactly one type")
				}
				src, dst := ids[i], ids[i+1]
				if rel.Inverse {
					src, dst = dst, src
				}
				g.AddEdge(src, rel.Types[0], dst)
				res.EdgesCreated++
			}
		}
		return nil
	})
	// The version is published even on error (journal-replay partial
	// state); the statement itself still fails.
	if err != nil {
		return nil, err
	}
	return res, nil
}
