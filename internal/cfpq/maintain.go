package cfpq

import (
	"fmt"
	"slices"

	"mscfpq/internal/exec"
	"mscfpq/internal/grammar"
	"mscfpq/internal/graph"
	"mscfpq/internal/matrix"
	"mscfpq/internal/obs"
)

// Maintenance is what carrying an index over to a newer graph found
// (NewIndexWarm): per nonterminal, the sources the prior index had
// processed, which the new index keeps processed, and the dirty ones
// among them, whose rows gained an entry on the newer graph. A carried
// source that is not dirty has the same row on both graphs.
type Maintenance struct {
	Carried []*matrix.Vector
	Dirty   []*matrix.Vector
	// Rounds is how many fixpoint rounds the maintenance run took: 0
	// when the newer graph gave no carried row a new seed fact.
	Rounds int
}

// Kept reports whether the rows of nonterminal a for the sources in src
// are the same on both graphs: each source was carried and none is
// dirty. Only the indices of src count, not its size, so src may come
// from either graph.
func (m *Maintenance) Kept(a int, src *matrix.Vector) bool {
	if a < 0 || a >= len(m.Carried) {
		return false
	}
	carried, dirty := m.Carried[a].Indices(), m.Dirty[a].Indices()
	for _, s := range src.Indices() {
		if _, ok := slices.BinarySearch(carried, s); !ok {
			return false
		}
		if _, ok := slices.BinarySearch(dirty, s); ok {
			return false
		}
	}
	return true
}

// Maintenance returns what NewIndexWarm's maintenance run found, or nil
// when the index was built cold or its maintenance failed.
func (idx *Index) Maintenance() *Maintenance { return idx.maint }

// NewIndexWarm carries a prior index over to g, a graph that grew out of
// the prior's by edge and vertex ADDITIONS only (the gdb write path never
// deletes): the paper's "each source at most once" extended across graph
// versions. CFPQ facts are monotone under such growth, so every fact the
// prior derived holds on g, and its relations carry over copy-on-write
// (matrix.Bool.CloneCOW), costing their row tables, not their entries.
//
// Its processed sources carry over too, once one run of the fixpoint
// driver (DESIGN.md §16) has brought their rows up to g. The run starts
// from the pair (T, ΔT) instead of from nothing: ΔT holds the label
// entries g added in rows of processed sources, found by comparing the
// two graphs' rows (matrix.Gained), and the processed sources are
// active. So it runs no round when g added nothing there, as when a
// write links only vertices it creates. Index.Maintenance reports the
// carried sources and the dirty ones. The options govern that run only;
// the new index's queries bring their own. If the run fails (its
// governor stops it), the index keeps the relations, whose facts all
// hold on g, but starts with no processed source and no Maintenance.
//
// The caller is responsible for the supergraph relationship (in the
// store layer it follows from version lineage); w must be the prior
// index's grammar.
func NewIndexWarm(g *graph.Graph, w *grammar.WCNF, prior *Index, opts ...Option) (*Index, error) {
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
	idx := &Index{G: g, W: w, seeds: newSeeder(g, w)}
	// idx is unpublished, but its invariants are mu-guarded; taking the
	// lock is free here and keeps the guarantee machine-checked.
	idx.mu.Lock()
	defer idx.mu.Unlock()
	var carried []*matrix.Vector
	idx.T, carried = prior.carry(n)
	m, err := idx.maintainLocked(prior.G, carried, opts)
	if err != nil {
		idx.TSrc = noMarks(len(idx.T), n)
		return idx, nil
	}
	idx.maint = m
	return idx, nil
}

// carry returns copy-on-write clones of the index's relations and its
// processed sets, grown to n vertices.
func (idx *Index) carry(n int) ([]*matrix.Bool, []*matrix.Vector) {
	idx.mu.Lock()
	defer idx.mu.Unlock()
	T := make([]*matrix.Bool, len(idx.T))
	done := make([]*matrix.Vector, len(idx.TSrc))
	for a := range T {
		T[a] = idx.T[a].CloneCOW()
		T[a].Resize(n, n)
		done[a] = idx.TSrc[a].Vector(n)
	}
	return T, done
}

// maintainLocked brings the rows of the carried sources up to idx.G, pg
// being the graph the carried relations were computed on, and marks the
// sources that leaves processed in idx.TSrc, which it builds from the
// carried sets, governed by opts. The caller holds idx.mu.
func (idx *Index) maintainLocked(pg *graph.Graph, carried []*matrix.Vector, opts []Option) (*Maintenance, error) {
	run, cancel := exec.Build(opts).Start()
	defer cancel()
	f := &fixpoint{w: idx.W, run: run, seeds: idx.seeds, T: idx.T}
	var err error
	if f.delta, err = seedGains(run, pg, idx.G, idx.W, idx.T, carried); err != nil {
		return nil, err
	}
	n := idx.G.NumVertices()
	m := &Maintenance{Carried: carried, Dirty: make([]*matrix.Vector, len(carried))}
	f.from(n, noMarks(len(carried), n))
	progress := false
	for a, c := range carried {
		m.Dirty[a] = matrix.NewVector(n)
		if f.delta[a] != nil {
			m.Dirty[a] = f.delta[a].RowIDs()
			progress = true
		}
		f.active[a].UnionInPlace(c)
		f.marks[a].AddAll(nil, c.Indices())
	}
	if progress {
		f.gained = m.Dirty
		if err := f.solve(); err != nil {
			return nil, err
		}
	}
	dirty := 0
	for a, d := range m.Dirty {
		// A source the run activated is new to the processed set, not
		// dirty: nothing carried its row.
		activated := d.Clone()
		activated.DiffInPlace(carried[a])
		d.DiffInPlace(activated)
		dirty += d.NVals()
	}
	m.Rounds = f.rounds
	idx.TSrc = f.marks
	obs.CFPQMaintainRounds.Observe(int64(m.Rounds))
	obs.CFPQMaintainDirty.Observe(int64(dirty))
	return m, nil
}

// seedGains adds to T the seed facts g gives the rows of the carried
// sources and pg did not: each is a label entry g added (matrix.Gained)
// in such a row. It returns what each relation gained, the maintenance
// run's first ΔT; nil where a relation gained nothing.
func seedGains(run *exec.Run, pg, g *graph.Graph, w *grammar.WCNF, T []*matrix.Bool, carried []*matrix.Vector) ([]*matrix.RowList, error) {
	n := g.NumVertices()
	added := map[string][][2]int{} // per stored edge label: the entries g added
	addedEdges := func(label string) [][2]int {
		if p, ok := added[label]; ok {
			return p
		}
		p := matrix.Gained(pg.EdgeMatrix(label), g.EdgeMatrix(label)).Pairs()
		added[label] = p
		return p
	}
	cand := make([][][2]int, len(T))
	for _, rule := range w.TermRules {
		done := carried[rule.A]
		if done.Empty() {
			continue
		}
		if err := run.Err(); err != nil {
			return nil, err
		}
		edge, vertex := grammar.TermLabels(w.Terms[rule.Term])
		if edge != "" {
			inverse := grammar.IsInverseLabel(edge)
			if inverse {
				edge = grammar.InverseLabel(edge)
			}
			for _, p := range addedEdges(edge) {
				if inverse {
					p[0], p[1] = p[1], p[0]
				}
				if done.Get(p[0]) {
					cand[rule.A] = append(cand[rule.A], p)
				}
			}
		}
		if vertex != "" {
			labeled := g.VertexSet(vertex).Clone()
			labeled.DiffInPlace(pg.VertexSet(vertex).Widen(n))
			for _, v := range labeled.Ints() {
				if done.Get(v) {
					cand[rule.A] = append(cand[rule.A], [2]int{v, v})
				}
			}
		}
	}
	delta := make([]*matrix.RowList, len(T))
	for a, ps := range cand {
		if len(ps) == 0 {
			continue
		}
		d := matrix.NewBool(n, n)
		for _, p := range ps {
			if !T[a].Get(p[0], p[1]) {
				T[a].Set(p[0], p[1])
				d.Set(p[0], p[1])
			}
		}
		if d.Empty() {
			continue
		}
		delta[a] = matrix.ListRows(d)
		if err := run.Charge(d.NVals()); err != nil {
			return nil, err
		}
	}
	return delta, nil
}
