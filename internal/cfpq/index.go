package cfpq

import (
	"fmt"
	"sync"

	"mscfpq/internal/exec"
	"mscfpq/internal/grammar"
	"mscfpq/internal/graph"
	"mscfpq/internal/matrix"
)

// Index is the persistent cache of the optimized multiple-source
// algorithm (Algorithm 3): it pins a graph and a grammar and accumulates
// the relation matrices T and the already-processed source sets TSrc
// across queries, so repeated or overlapping source sets reuse all
// previously computed facts instead of recomputing them from scratch.
//
// An Index is bound to an immutable snapshot of the graph: mutating the
// graph after NewIndex invalidates the cache (the paper's setting —
// static graph, repeated queries). Queries against one Index may run
// from multiple goroutines; they are serialized internally.
//
// Cancellation safety: a query grows T in place and claims its sources
// as processed only once its fixpoint has completed. A query aborted by
// its context, timeout, or budget leaves behind the facts it derived —
// each is true on this graph whether or not the query finished (the
// monotonicity argument above NewIndexWarm) — in rows no TSrc claims, so
// a later query that needs those rows computes them to completion and
// every answer stays exact.
type Index struct {
	G *graph.Graph
	W *grammar.WCNF

	mu   sync.Mutex
	T    []*matrix.Bool   // guarded by mu: cached relation matrices, grown monotonically
	TSrc []*matrix.Vector // guarded by mu: sources already fully processed, per nonterminal

	opts    exec.Options
	queries int // guarded by mu
}

// NewIndex creates an empty cache for (g, w), seeding T from the simple
// and eps rules once; subsequent queries share the seeded matrices. The
// options become per-index defaults; per-query options layered on top
// via MultiSourceSmart override them.
func NewIndex(g *graph.Graph, w *grammar.WCNF, opts ...Option) (*Index, error) {
	if err := checkInputs(g, w); err != nil {
		return nil, err
	}
	n := g.NumVertices()
	idx := &Index{G: g, W: w, opts: exec.Build(opts)}
	r := newResult(w, n)
	initSimpleRules(r, g)
	initEpsRules(r, n)
	idx.T = r.T
	idx.TSrc = make([]*matrix.Vector, w.NumNonterms())
	for a := range idx.TSrc {
		idx.TSrc[a] = matrix.NewVector(n)
	}
	return idx, nil
}

// NewIndexWarm creates an index for (g, w) seeded from a prior index's
// accumulated relations — the warm start of the incremental re-query
// path: when a graph version grows out of an older one by edge and
// vertex ADDITIONS only (the gdb write path never deletes), every fact
// the old index derived remains derivable, because CFPQ facts are
// monotone under edge addition. Seeding T with them can therefore only
// skip work, never change answers. The processed-source sets start
// EMPTY: a source fully processed against the old graph may reach new
// facts through the added edges, so its claim must not carry over —
// the first query touching it reprocesses it against the new graph.
//
// The caller is responsible for the supergraph relationship (in the
// store layer it follows from version lineage); w must be the prior
// index's grammar.
func NewIndexWarm(g *graph.Graph, w *grammar.WCNF, prior *Index, opts ...Option) (*Index, error) {
	idx, err := NewIndex(g, w, opts...)
	if err != nil {
		return nil, err
	}
	if prior == nil {
		return idx, nil
	}
	if prior.W != w {
		return nil, fmt.Errorf("cfpq: warm start requires the prior index's grammar")
	}
	n := g.NumVertices()
	if pn := prior.G.NumVertices(); pn > n {
		return nil, fmt.Errorf("cfpq: warm start from a larger graph (%d > %d vertices)", pn, n)
	}
	prior.mu.Lock()
	defer prior.mu.Unlock()
	// idx is unpublished, but its invariants are mu-guarded; taking the
	// lock is free here and keeps the guarantee machine-checked.
	idx.mu.Lock()
	defer idx.mu.Unlock()
	for a := range idx.T {
		if prior.T[a].NVals() == 0 {
			continue
		}
		// One copy per relation: the prior's rows, grown to the new
		// shape, take the new graph's seeds and replace them.
		warm := prior.T[a].Clone()
		warm.Resize(n, n)
		matrix.AddInPlace(warm, idx.T[a])
		idx.T[a] = warm
	}
	return idx, nil
}

// Queries returns the number of queries evaluated against the index.
func (idx *Index) Queries() int {
	idx.mu.Lock()
	defer idx.mu.Unlock()
	return idx.queries
}

// CachedSources returns the set of vertices whose start-nonterminal
// paths are already fully computed.
func (idx *Index) CachedSources() *matrix.Vector { return idx.ProcessedSources(idx.W.Start) }

// MultiSourceSmart evaluates a multiple-source query against the cache
// (Algorithm 3). Vertices of src already present in the index are
// filtered out up front (line 3); during the fixpoint, propagated
// sources are filtered against the cached TSrc (lines 9-10) so each
// vertex is processed at most once per nonterminal across the lifetime
// of the index.
func (idx *Index) MultiSourceSmart(src *matrix.Vector, opts ...Option) (*MSResult, error) {
	if src == nil {
		return nil, fmt.Errorf("cfpq: nil source vector")
	}
	return idx.MultiSourceSmartFrom(map[int]*matrix.Vector{idx.W.Start: src}, opts...)
}

// MultiSourceSmartFrom is the generalization of Algorithm 3 the database
// layer uses (Section 4.3.2): source sets may be requested for arbitrary
// nonterminals (the named path patterns an operation depends on), and
// the cache is shared across all of them.
//
// The result's Answer is a private copy; its T is the index's own (see
// Relation) and its Src the sources this query processed.
func (idx *Index) MultiSourceSmartFrom(srcByNT map[int]*matrix.Vector, opts ...Option) (*MSResult, error) {
	idx.mu.Lock()
	defer idx.mu.Unlock()
	run, cancel := idx.opts.Apply(opts).Start()
	defer cancel()
	n := idx.G.NumVertices()
	w := idx.W

	// Line 3: only sources not yet in the cache enter the computation.
	f := &fixpoint{w: w, run: run, mul: boolProduct, T: idx.T, done: idx.TSrc}
	if err := f.restrict(srcByNT, n); err != nil {
		return nil, err
	}
	idx.queries++
	if err := f.solve(); err != nil {
		return nil, err
	}
	// Commit: the rows of this run's sources are now complete.
	for a := range idx.TSrc {
		idx.TSrc[a].UnionInPlace(f.active[a])
	}
	sources := requested(srcByNT, w.Start, n)
	return &MSResult{
		Result:  &Result{W: w, T: idx.T, Rounds: f.rounds, Work: run.Spent()},
		Src:     f.active,
		Sources: sources,
		answer:  matrix.ExtractRows(idx.T[w.Start], sources),
	}, nil
}

// Relation returns the cached relation matrix for a nonterminal id. The
// matrix is shared with the index and grows as queries are evaluated.
func (idx *Index) Relation(a int) *matrix.Bool {
	idx.mu.Lock()
	defer idx.mu.Unlock()
	return idx.T[a]
}

// ProcessedSources returns a copy of the vertices already fully
// processed for a nonterminal id — the cached TSrc set.
func (idx *Index) ProcessedSources(a int) *matrix.Vector {
	idx.mu.Lock()
	defer idx.mu.Unlock()
	return idx.TSrc[a].Clone()
}
