package cfpq

import (
	"fmt"
	"slices"
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
// T holds the rows queries have activated, seeds included: row i of T^A
// holds its seed facts whenever i is processed for A.
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

// NewIndex creates an empty cache for (g, w): T and TSrc start empty,
// and a query seeds the rows of T it activates (DESIGN.md §16), so a
// row's seeds are copied once, by the first query that needs it. The
// options become per-index defaults; per-query options layered on top
// via MultiSourceSmart override them. w may have no nonterminals: such
// an index serves only Extensions.
func NewIndex(g *graph.Graph, w *grammar.WCNF, opts ...Option) (*Index, error) {
	if g == nil || w == nil {
		return nil, fmt.Errorf("cfpq: nil graph or grammar")
	}
	n := g.NumVertices()
	idx := &Index{G: g, W: w, opts: exec.Build(opts)}
	idx.T = newResult(w, n).T
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
// the first query touching it reprocesses it against the new graph,
// which also seeds its rows from the new graph's edges.
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
		// One copy per relation: the prior's rows, grown to the new shape.
		idx.T[a] = prior.T[a].Clone()
		idx.T[a].Resize(n, n)
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
//
// The result's Answer is a private copy; its T is the index's own (see
// Relation) and its Src the sources this query processed.
func (idx *Index) MultiSourceSmart(src *matrix.Vector, opts ...Option) (*MSResult, error) {
	if src == nil {
		return nil, fmt.Errorf("cfpq: nil source vector")
	}
	idx.mu.Lock()
	defer idx.mu.Unlock()
	w := idx.W
	f, work, err := idx.solveLocked(w, idx.T, idx.TSrc, w.Start, src, opts)
	if err != nil {
		return nil, err
	}
	return &MSResult{
		Result:  &Result{W: w, T: idx.T, Rounds: f.rounds, Work: work},
		Src:     f.active,
		Sources: src.Clone(),
		answer:  matrix.ExtractRows(idx.T[w.Start], src),
	}, nil
}

// solveLocked is Algorithm 3 for the sources src of nonterminal a over
// w, which is idx.W or extends it (grammar.Extend), with relations T and
// processed sets done: the index's own, followed by an Extension's. Only
// sources not in done enter the computation; once the fixpoint completes
// the ones it processed join done (the abort rule, DESIGN.md §16). The
// caller holds idx.mu.
func (idx *Index) solveLocked(w *grammar.WCNF, T []*matrix.Bool, done []*matrix.Vector, a int, src *matrix.Vector, opts []Option) (*fixpoint, int64, error) {
	run, cancel := idx.opts.Apply(opts).Start()
	defer cancel()
	f := &fixpoint{w: w, run: run, seeds: newSeeder(idx.G, w), T: T, done: done}
	if err := f.restrict(map[int]*matrix.Vector{a: src}, idx.G.NumVertices()); err != nil {
		return nil, 0, err
	}
	idx.queries++
	if err := f.solve(); err != nil {
		return nil, 0, err
	}
	for b := range done {
		done[b].UnionInPlace(f.active[b])
	}
	return f, run.Spent(), nil
}

// Extension is one query's grammar on top of the index: a MATCH path or
// relationship pattern compiled into the declared grammar. Its WCNF
// extends idx.W, so the declared nonterminals keep their ids and use the
// index's own relations and processed sources — what the query derives
// for them stays for later queries — while the nonterminals it adds get
// their own, which start empty and grow across the query's calls to
// Rows. An Extension serves one query at a time.
type Extension struct {
	idx *Index
	w   *grammar.WCNF

	// Per nonterminal of w: the index's T and TSrc for its own
	// nonterminals, then the added ones'; read and grown under idx.mu.
	t    []*matrix.Bool
	tsrc []*matrix.Vector
}

// Extend gives the nonterminals w adds to the index's grammar empty
// relations and processed sets; the rows a call to Rows activates are
// seeded as it solves. w must extend idx.W (grammar.Extend).
func (idx *Index) Extend(w *grammar.WCNF) (*Extension, error) {
	base := idx.W.NumNonterms()
	if w.NumNonterms() < base || !slices.Equal(w.Nonterms[:base], idx.W.Nonterms) {
		return nil, fmt.Errorf("cfpq: grammar does not extend the index's")
	}
	n := idx.G.NumVertices()
	x := &Extension{
		idx:  idx,
		w:    w,
		t:    make([]*matrix.Bool, w.NumNonterms()),
		tsrc: make([]*matrix.Vector, w.NumNonterms()),
	}
	for a := base; a < len(x.t); a++ {
		x.t[a] = matrix.NewBool(n, n)
		x.tsrc[a] = matrix.NewVector(n)
	}
	idx.mu.Lock()
	defer idx.mu.Unlock()
	copy(x.t, idx.T)
	copy(x.tsrc, idx.TSrc)
	return x, nil
}

// Rows returns a private copy of the rows of nonterminal a for the
// sources in src, first solving the ones a has not processed: Algorithm
// 3 over the extended grammar, in which the sources requested for an
// added nonterminal reach the declared ones through the rules that use
// them — the paper's Algorithm 8, where a reference receives the
// destinations of its left operand as sources. When every source is
// processed already, no round runs. The copy is a row list, so it costs
// the rows returned, not the graph's size.
func (x *Extension) Rows(a int, src *matrix.Vector, opts ...Option) (*matrix.RowList, error) {
	if a < 0 || a >= len(x.t) {
		return nil, fmt.Errorf("cfpq: nonterminal id %d out of range", a)
	}
	idx := x.idx
	if src == nil || src.Size() != idx.G.NumVertices() {
		return nil, fmt.Errorf("cfpq: source vector size mismatch (graph has %d vertices)", idx.G.NumVertices())
	}
	idx.mu.Lock()
	defer idx.mu.Unlock()
	fresh := src.Clone()
	fresh.DiffInPlace(x.tsrc[a])
	if !fresh.Empty() {
		if _, _, err := idx.solveLocked(x.w, x.t, x.tsrc, a, src, opts); err != nil {
			return nil, err
		}
	}
	return matrix.SelectRows(x.t[a], src), nil
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
