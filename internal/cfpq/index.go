package cfpq

import (
	"fmt"
	"slices"
	"sync"

	"mscfpq/internal/exec"
	"mscfpq/internal/grammar"
	"mscfpq/internal/graph"
	"mscfpq/internal/matrix"
	"mscfpq/internal/obs"
)

// Index is the persistent cache of the optimized multiple-source
// algorithm (Algorithm 3): it pins a graph and a grammar and accumulates
// the relation matrices T and the already-processed source sets TSrc
// across queries, so repeated or overlapping source sets reuse all
// previously computed facts instead of recomputing them from scratch.
// T holds the rows queries have activated, seeds included: row i of T^A
// holds its seed facts whenever i is processed for A. TSrc^A is an
// n-bit mark that a solve also sets for the sources it activates.
//
// An Index is bound to an immutable snapshot of the graph (the paper's
// setting: static graph, repeated queries); the graph must not change
// under it. A newer version of the graph that grew out of this one gets
// its own index, carried over from this one by NewIndexWarm, which
// keeps the processed sources when the growth left their rows alone. Queries
// against one Index may run from multiple goroutines; they are
// serialized internally. An index holds no options: each query brings
// its own context, timeout, budget and trace.
//
// Cancellation safety: a query grows T in place. One aborted by its
// context, timeout, or budget clears the marks it set and leaves behind
// the facts it derived — each is true on this graph whether or not the
// query finished — in rows no TSrc claims, so a later query that needs
// those rows computes them to completion and every answer stays exact.
type Index struct {
	G *graph.Graph
	W *grammar.WCNF

	mu   sync.Mutex
	T    []*matrix.Bool // guarded by mu: cached relation matrices, grown monotonically
	TSrc []matrix.Mark  // guarded by mu: sources already fully processed, per nonterminal

	seeds   *seeder // guarded by mu
	queries int     // guarded by mu
}

// NewIndex creates an empty cache for (g, w): T and TSrc start empty,
// and a query seeds the rows of T it activates (DESIGN.md §16), so a
// row's seeds are copied once, by the first query that needs it. Each
// query brings its own options (MultiSourceSmart, Extension.Rows and
// Count). w may have no nonterminals: such an index serves only
// Extensions.
func NewIndex(g *graph.Graph, w *grammar.WCNF) (*Index, error) {
	if g == nil || w == nil {
		return nil, fmt.Errorf("cfpq: nil graph or grammar")
	}
	n := g.NumVertices()
	idx := &Index{G: g, W: w, seeds: newSeeder(g, w)}
	idx.T = newResult(w, n).T
	idx.TSrc = noMarks(w.NumNonterms(), n)
	return idx, nil
}

// NewIndexWarm carries a prior index over to g, a graph that grew out of
// the prior's by edge and vertex ADDITIONS only (the gdb write path never
// deletes): the paper's "each source at most once" extended across graph
// versions. CFPQ facts are monotone under such growth, so every fact the
// prior derived holds on g, and its relations carry over copy-on-write
// (matrix.Bool.CloneCOW), costing their row tables, not their entries.
//
// Its processed sources carry over too when g grew apart from the
// prior's graph (graph.GrewApart, a stamp the writes record, as
// conservative across versions as the store's Touched): no edge joins
// an old vertex to a new one, so every processed row is the same on g.
// Otherwise the index starts with no processed source, and queries
// complete the rows they need from the carried facts.
//
// The caller is responsible for the supergraph relationship (in the
// store layer it follows from version lineage); w must be the prior
// index's grammar.
func NewIndexWarm(g *graph.Graph, w *grammar.WCNF, prior *Index) (*Index, error) {
	if prior == nil {
		return NewIndex(g, w)
	}
	if g == nil || w == nil {
		return nil, fmt.Errorf("cfpq: nil graph or grammar")
	}
	if prior.W != w {
		return nil, fmt.Errorf("cfpq: warm start requires the prior index's grammar")
	}
	n := g.NumVertices()
	if pn := prior.G.NumVertices(); pn > n {
		return nil, fmt.Errorf("cfpq: warm start from a larger graph (%d > %d vertices)", pn, n)
	}
	apart := graph.GrewApart(prior.G, g)
	idx := &Index{G: g, W: w, seeds: newSeeder(g, w)}
	prior.mu.Lock()
	defer prior.mu.Unlock()
	idx.T = make([]*matrix.Bool, len(prior.T))
	idx.TSrc = noMarks(len(prior.T), n)
	for a, t := range prior.T {
		idx.T[a] = t.CloneCOW()
		idx.T[a].Resize(n, n)
		if apart {
			copy(idx.TSrc[a], prior.TSrc[a])
		}
	}
	return idx, nil
}

// Queries returns the number of solves the index ran: one per
// MultiSourceSmart call and per Extension.Rows or Count call with a
// source not yet processed. A call whose sources were all processed
// runs no fixpoint and does not count.
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
	f, work, err := idx.solveLocked(w, idx.seeds, idx.T, idx.TSrc, w.Start, src, opts)
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
// processed marks done: the index's own, followed by an Extension's.
// Only sources not in done enter the computation, and done marks them
// as they activate; if the fixpoint fails, their marks are cleared again
// (the abort rule, DESIGN.md §16). seeds is w's seeder. The caller
// holds idx.mu.
func (idx *Index) solveLocked(w *grammar.WCNF, seeds *seeder, T []*matrix.Bool, done []matrix.Mark, a int, src *matrix.Vector, opts []Option) (*fixpoint, int64, error) {
	run, cancel := exec.Build(opts).Start()
	defer cancel()
	f := &fixpoint{w: w, run: run, seeds: seeds, T: T}
	err := f.restrict(a, src, done)
	if err == nil {
		idx.queries++
		err = f.solve()
	}
	if err != nil {
		f.unmark()
		return nil, 0, err
	}
	obs.CFPQRounds.Observe(int64(f.rounds))
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
	t     []*matrix.Bool
	tsrc  []matrix.Mark
	seeds *seeder
}

// Extend gives the nonterminals w adds to the index's grammar empty
// relations and processed marks; the rows a call to Rows activates are
// seeded as it solves. w must extend idx.W (grammar.Extend).
func (idx *Index) Extend(w *grammar.WCNF) (*Extension, error) {
	base := idx.W.NumNonterms()
	if w.NumNonterms() < base || !slices.Equal(w.Nonterms[:base], idx.W.Nonterms) {
		return nil, fmt.Errorf("cfpq: grammar does not extend the index's")
	}
	n := idx.G.NumVertices()
	x := &Extension{
		idx:   idx,
		w:     w,
		t:     make([]*matrix.Bool, w.NumNonterms()),
		tsrc:  make([]matrix.Mark, w.NumNonterms()),
		seeds: newSeeder(idx.G, w),
	}
	for a := base; a < len(x.t); a++ {
		x.t[a] = matrix.NewBool(n, n)
		x.tsrc[a] = matrix.NewMark(n)
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
	x.idx.mu.Lock()
	defer x.idx.mu.Unlock()
	if err := x.solveLocked(a, src, opts); err != nil {
		return nil, err
	}
	return matrix.SelectRows(x.t[a], src), nil
}

// Count returns how many pairs of nonterminal a start at the vertices
// from lists, a vertex counted as often as it is listed: the lengths of
// their rows summed, once they are solved as Rows solves its sources.
// It copies no row.
func (x *Extension) Count(a int, from []int, opts ...Option) (int, error) {
	src := matrix.NewVectorFromIndices(x.idx.G.NumVertices(), from)
	x.idx.mu.Lock()
	defer x.idx.mu.Unlock()
	if err := x.solveLocked(a, src, opts); err != nil {
		return 0, err
	}
	n := 0
	for _, v := range from {
		n += x.t[a].RowLen(v)
	}
	return n, nil
}

// solveLocked runs Algorithm 3 for the sources in src that a has not
// processed, if any. The caller holds x.idx.mu.
func (x *Extension) solveLocked(a int, src *matrix.Vector, opts []Option) error {
	if a < 0 || a >= len(x.t) {
		return fmt.Errorf("cfpq: nonterminal id %d out of range", a)
	}
	idx := x.idx
	if src == nil || src.Size() != idx.G.NumVertices() {
		return fmt.Errorf("cfpq: source vector size mismatch (graph has %d vertices)", idx.G.NumVertices())
	}
	for _, i := range src.Indices() {
		if !x.tsrc[a].Has(i) {
			_, _, err := idx.solveLocked(x.w, x.seeds, x.t, x.tsrc, a, src, opts)
			return err
		}
	}
	return nil
}

// Relation returns the cached relation matrix for a nonterminal id. The
// matrix is shared with the index and grows as queries are evaluated.
func (idx *Index) Relation(a int) *matrix.Bool {
	idx.mu.Lock()
	defer idx.mu.Unlock()
	return idx.T[a]
}

// ProcessedSources returns the vertices already fully processed for a
// nonterminal id — the cached TSrc set, decoded from its mark.
func (idx *Index) ProcessedSources(a int) *matrix.Vector {
	idx.mu.Lock()
	defer idx.mu.Unlock()
	return idx.TSrc[a].Vector(idx.G.NumVertices())
}
