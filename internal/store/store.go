// Package store implements epoch-versioned, immutable graph snapshots
// and the query cache built on top of them, whose entries record the
// version they were computed at (DESIGN.md §11).
//
// A Store holds an atomically published chain of Snapshots. Readers
// pin the current snapshot with one atomic load and evaluate against
// it lock-free — no lock is held while a query runs, so a long CFPQ
// fixpoint never stalls writers and writers never stall readers.
// Writers are serialized: each Update clones the current snapshot
// copy-on-write (matrix.Bool row sharing, so the clone is
// O(labels + vertices), not O(edges)), applies its mutations to the
// private clone, and publishes it as the next version. Versions are
// monotonically increasing; on a durable database the gdb layer drives
// every Update from inside its journal commit, so version N is exactly
// the state after journal record N.
package store

import (
	"sync"
	"sync/atomic"

	"mscfpq/internal/cypher"
	"mscfpq/internal/graph"
)

// storeIDs hands out process-unique store identities. Cache keys embed
// the id so entries can never collide across store incarnations (a
// GRAPH.RESTORE replaces the whole store object: its version counter
// restarts, but its id is fresh).
var storeIDs atomic.Uint64

// Snapshot is one immutable version of a graph plus its node
// properties. All accessors are safe for concurrent use; callers must
// not mutate the returned graph or property maps.
//
// immutable after publish (enforced by the snapfreeze analyzer):
// once Update stores a Snapshot in st.cur, readers access it with
// plain loads, so no field may ever be written again.
type Snapshot struct {
	storeID uint64
	version uint64
	touched uint64
	g       *graph.Graph
	props   map[int]map[string]cypher.Value
}

// StoreID returns the process-unique id of the owning store.
func (s *Snapshot) StoreID() uint64 { return s.storeID }

// Version returns the snapshot's epoch: 0 for the initial state, +1
// per committed Update.
func (s *Snapshot) Version() uint64 { return s.version }

// Touched returns the latest version, up to this one, whose write did
// not grow the graph apart from its predecessor (graph.GrewApart), so
// that version j grew apart from version i < j iff j's Touched is ≤ i.
func (s *Snapshot) Touched() uint64 { return s.touched }

// Graph returns the snapshot's graph. Read-only: mutating it would
// corrupt every snapshot sharing its rows.
func (s *Snapshot) Graph() *graph.Graph { return s.g }

// Props returns vertex v's properties (nil if none). Read-only.
func (s *Snapshot) Props(v int) map[string]cypher.Value { return s.props[v] }

// PropEquals reports whether vertex v has property key equal to val.
// It implements plan.PropStore, so a pinned snapshot can back filter
// evaluation directly.
func (s *Snapshot) PropEquals(v int, key string, val cypher.Value) bool {
	p, ok := s.props[v]
	if !ok {
		return false
	}
	have, ok := p[key]
	return ok && have == val
}

// Store is an epoch-versioned snapshot holder: one atomic pointer to
// the current Snapshot, a writer lock serializing Updates.
type Store struct {
	id  uint64
	wmu sync.Mutex // serializes writers (Update)
	cur atomic.Pointer[Snapshot]
}

// New wraps a graph as version 0 of a fresh store. The graph is
// adopted: the caller must not mutate it after handing it over (seed
// it fully first, or go through Update).
func New(g *graph.Graph) *Store {
	st := &Store{id: storeIDs.Add(1)}
	st.cur.Store(&Snapshot{storeID: st.id, g: g, props: map[int]map[string]cypher.Value{}})
	return st
}

// ID returns the store's process-unique identity.
func (st *Store) ID() uint64 { return st.id }

// Pin returns the current snapshot. The snapshot stays valid (and
// immutable) for as long as the caller holds it; unpinning is implicit
// — dropping the reference lets the garbage collector reclaim rows no
// newer version shares.
func (st *Store) Pin() *Snapshot { return st.cur.Load() }

// Version returns the current version without pinning.
func (st *Store) Version() uint64 { return st.cur.Load().version }

// Tx is the mutable copy-on-write view of one Update: a private clone
// of the graph plus property maps that copy inner maps on first write.
type Tx struct {
	g     *graph.Graph
	props map[int]map[string]cypher.Value
	owned map[int]bool // vertices whose inner prop map is already private
}

// Graph returns the transaction's private graph; mutations stay
// invisible until the Update commits.
func (tx *Tx) Graph() *graph.Graph { return tx.g }

// SetProp sets a node property, copying the vertex's inner map on
// first write so prior snapshots keep their values.
func (tx *Tx) SetProp(v int, key string, val cypher.Value) {
	p := tx.props[v]
	if p == nil {
		p = map[string]cypher.Value{}
		tx.props[v] = p
		tx.owned[v] = true
	} else if !tx.owned[v] {
		c := make(map[string]cypher.Value, len(p)+1)
		for k, vv := range p {
			c[k] = vv
		}
		p = c
		tx.props[v] = p
		tx.owned[v] = true
	}
	p[key] = val
}

// Update applies fn to a copy-on-write transaction over the current
// snapshot and publishes the result as the next version. The snapshot
// is published even when fn returns an error: the version then
// captures exactly the mutations fn applied before failing, mirroring
// journal-replay semantics (a statement that failed halfway live fails
// at the same point during replay, reproducing the acknowledged
// partial state). fn's error is returned alongside the new snapshot.
//
// The new snapshot inherits the current one's Touched stamp, or takes
// its own version when the write did not grow the graph apart.
//
// Updates are serialized; readers are never blocked and keep serving
// the prior version until the new one is published.
func (st *Store) Update(fn func(tx *Tx) error) (*Snapshot, error) {
	st.wmu.Lock()
	defer st.wmu.Unlock()
	cur := st.cur.Load()
	tx := &Tx{
		// CloneFrozen, not CowClone: cur is published — readers hold
		// it — and must stay bit-for-bit immutable; CowClone would
		// write its shared bitmap.
		g:     cur.g.CloneFrozen(),
		props: make(map[int]map[string]cypher.Value, len(cur.props)),
		owned: map[int]bool{},
	}
	for v, p := range cur.props {
		tx.props[v] = p
	}
	err := fn(tx)
	version, touched := cur.version+1, cur.touched
	if !graph.GrewApart(cur.g, tx.g) {
		touched = version
	}
	next := &Snapshot{storeID: st.id, version: version, touched: touched, g: tx.g, props: tx.props}
	st.cur.Store(next)
	return next, err
}
