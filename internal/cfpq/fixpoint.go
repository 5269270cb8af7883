package cfpq

import (
	"fmt"

	"mscfpq/internal/exec"
	"mscfpq/internal/grammar"
	"mscfpq/internal/graph"
	"mscfpq/internal/matrix"
	"mscfpq/internal/obs"
)

// fixpoint is the one delta-driven loop behind AllPairsSemiNaive,
// MultiSource, the Index (MultiSourceSmart and Extension.Rows),
// SinglePath and MultiSourceSinglePath (DESIGN.md §16): they set up T and
// the source vectors, call solve, and pack the state into their result.
//
// Each round applies every rule A -> B C to what the previous round
// added. With M = rows(T^B, active A-sources), Algorithm 2's
// TSrc^A * T^B, the part of M that is new this round is
//
//	ΔM = rows(T^B, fresh A-sources) ∪ rows(ΔT^B, active A-sources)
//
// and A gains ΔM * T^C ∪ M * ΔT^C, less T^A. Sources move as in
// Algorithms 2 and 3: B ∪= fresh A-sources, C ∪= getDst(ΔM), less what
// the marks hold, the processed (Algorithm 3) and activated sources. An
// unrestricted run has every row active: ΔM = ΔT^B and M = T^B.
//
// T stays matrix.Bool, so a product finds a row of T^C by index, and a
// row of T two-thirds full is a bitmap a product ORs a word at a time.
// ΔT and ΔM are matrix.RowLists, which hold only their live rows: a run
// restricted to a few sources costs the rows it touches and the
// products they form, never a walk of the n-slot row tables. M reads
// T^B's rows in place through the active A-sources (matrix.ViewRows):
// it copies no entry, a bitmap row stays a bitmap, and it is read when
// its product runs. The fresh part of ΔM, rows(T^B, fresh A-sources),
// is a copy (matrix.SelectRows): it is merged with rows of ΔT^B, and
// seeding for C grows rows of T in place (Bool.Set) before it is
// multiplied. Every product is one masked multiply-accumulate,
// T^A<¬T^A> ∪= a×b (run.MulAddRows), which returns what T^A gained.
//
// A restricted run seeds on activation: a source i that becomes active
// for X brings row i of T^X its seed facts (seeder), so row i holds them
// whenever i is active or processed for X. B ∪= fresh A-sources runs
// before rows(T^B, fresh A-sources) is read, and a mid vertex is seeded
// for C before ΔM * T^C, so every seed meets the operand it pairs with;
// no seed needs to be in ΔT.
//
// T grows in place, within a round too: a product may read entries an
// earlier product of the same round added, which only finds facts
// sooner. So does M * ΔT^C when the rule's head is its own left factor
// (A -> A C, as the path compiler's left-folded helpers are): M then
// holds what ΔM * T^C added just before. Each entry is also in the next
// round's ΔT, so every pair of an M entry and a T^C entry still meets,
// in the round the later of the two appears. A witness run numbers its
// products in order, so an entry found sooner is derived from entries
// logged before it.
type fixpoint struct {
	w     *grammar.WCNF
	run   *exec.Run
	seeds *seeder
	// witness, when set, logs what every derive call adds (single-path
	// semantics); nil for a Boolean run.
	witness *SinglePathResult

	T     []*matrix.Bool    // relations per nonterminal, grown in place
	delta []*matrix.RowList // ΔT: the entries T gained in the previous round; nil = none
	next  []*matrix.RowList // the next ΔT, which the round fills; reused round to round

	// The source restriction; active == nil runs unrestricted. A mark
	// holds the processed sources (Algorithm 3's TSrc, kept by an index
	// across solves) and every one this run activated: activation is a
	// test-and-set, which appends to activated, the next fresh sources.
	active    []*matrix.Vector // sources whose rows this run computes, as the round began
	fresh     []*matrix.Vector // the part of active that the previous round activated
	marks     []matrix.Mark
	activated [][]uint32 // unsorted

	rounds int
}

// evaluate is the set-up the four index-free callers share: check the
// inputs, start the governor, seed every row of fresh relations, label
// relations being the graph's matrices (seeder.relations), when src is
// nil (a restricted run seeds the rows it activates), run the driver
// (unrestricted when src is nil, otherwise from the sources src of the
// start nonterminal), logging its derivations when witness is set, and
// stamp the statistics. It also returns the sources the run activated.
func evaluate(g *graph.Graph, w *grammar.WCNF, src *matrix.Vector, witness bool, opts []Option) (*SinglePathResult, []*matrix.Vector, error) {
	if err := checkInputs(g, w); err != nil {
		return nil, nil, err
	}
	run, cancel := exec.Build(opts).Start()
	defer cancel()
	n := g.NumVertices()
	seeds := newSeeder(g, w)
	r := &SinglePathResult{Result: &Result{W: w, T: seeds.relations(n, 0)}}
	f := &fixpoint{w: w, run: run, seeds: seeds, T: r.T}
	if witness {
		f.witness = r.logging(f.seeds)
	}
	if src == nil {
		if err := f.seeds.all(run, r.T, n); err != nil {
			return nil, nil, err
		}
		f.listAll()
	} else if err := f.restrict(w.Start, src, noMarks(len(r.T), n)); err != nil {
		return nil, nil, err
	}
	if err := f.solve(); err != nil {
		return nil, nil, err
	}
	obs.CFPQRounds.Observe(int64(f.rounds))
	r.Rounds, r.Work = f.rounds, run.Spent()
	return r, f.active, nil
}

// noMarks returns an empty mark of n vertices for each of nnt
// nonterminals.
func noMarks(nnt, n int) []matrix.Mark {
	marks := make([]matrix.Mark, nnt)
	for a := range marks {
		marks[a] = matrix.NewMark(n)
	}
	return marks
}

// listAll sets up an unrestricted run: its first ΔT is every row of the
// seeded T, listed once.
func (f *fixpoint) listAll() {
	f.delta = make([]*matrix.RowList, len(f.T))
	for a, t := range f.T {
		f.delta[a] = matrix.ListRows(t)
	}
}

// restrict sets up a restricted run over the marks, with an empty first
// ΔT: it activates the sources src of nonterminal a that the marks lack
// as the first round's fresh and active ones. Its callers check a.
func (f *fixpoint) restrict(a int, src *matrix.Vector, marks []matrix.Mark) error {
	n := f.T[a].NRows()
	if src.Size() != n {
		return fmt.Errorf("cfpq: source vector size mismatch (graph has %d vertices)", n)
	}
	f.delta = make([]*matrix.RowList, len(f.T))
	f.from(n, marks)
	if err := f.activate(a, src.Indices(), nil); err != nil {
		return err
	}
	f.promote()
	return nil
}

// from installs a restriction over n vertices and the marks, with no
// source active yet.
func (f *fixpoint) from(n int, marks []matrix.Mark) {
	f.marks = marks
	f.active, f.fresh = make([]*matrix.Vector, len(f.T)), make([]*matrix.Vector, len(f.T))
	for b := range f.T {
		f.active[b], f.fresh[b] = matrix.NewVector(n), matrix.NewVector(n)
	}
	f.activated = make([][]uint32, len(f.T))
}

// activate activates for nonterminal a the candidates its mark lacks,
// those of cand and getDst(d), and seeds their rows of T^a.
func (f *fixpoint) activate(a int, cand []uint32, d *matrix.RowList) error {
	lo := len(f.activated[a])
	f.activated[a] = f.marks[a].AddCols(f.marks[a].AddAll(f.activated[a], cand), d)
	return f.seeds.rows(f.run, f.T[a], a, f.activated[a][lo:])
}

// promote makes what the round activated the next round's fresh
// sources and adds them to the active ones. It reports whether it
// activated any.
func (f *fixpoint) promote() (grew bool) {
	for a, act := range f.activated {
		f.activated[a] = f.fresh[a].Exchange(act)
		grew = f.active[a].UnionInPlace(f.fresh[a]) || grew
	}
	return grew
}

// unmark clears from the marks every source the run activated, so they
// hold what they held before it: the abort rule (DESIGN.md §16), at the
// cost of the sources activated.
func (f *fixpoint) unmark() {
	f.promote()
	for a, m := range f.marks {
		for _, i := range f.active[a].Indices() {
			m.Remove(i)
		}
	}
}

// solve runs rounds until one adds neither an entry nor a source. On an
// error (cancellation, timeout, budget) T keeps what was derived so far;
// every such entry is a true fact, but no row is known to be complete.
func (f *fixpoint) solve() error {
	f.next = make([]*matrix.RowList, len(f.T))
	for progress := true; progress; {
		// Poll once per round: with no binary rules the round is empty,
		// and the governor must still be able to abort.
		if err := f.run.Err(); err != nil {
			return err
		}
		f.rounds++
		span := f.run.StartSpan(obs.SpanRound(f.rounds))
		var err error
		progress, err = f.round()
		span.End()
		if err != nil {
			return err
		}
	}
	return nil
}

// round applies every binary rule once, installs what that added as the
// next round's ΔT and fresh sources, and reports whether it added any.
// A rule whose ΔM and ΔT^C are both empty has nothing new to multiply
// and is skipped once its B sources are activated.
func (f *fixpoint) round() (progress bool, err error) {
	clear(f.next) // nil where a relation gains nothing
	for ri, rule := range f.w.BinRules {
		var dm, m matrix.Operand = f.delta[rule.B], f.T[rule.B]
		if f.active != nil {
			act, fresh := f.active[rule.A], f.fresh[rule.A]
			f.run.ObserveFrontier(act.NVals())
			if act.Empty() {
				continue
			}
			if err := f.activate(rule.B, fresh.Indices(), nil); err != nil {
				return false, err
			}
			var d *matrix.RowList
			if !fresh.Empty() {
				d = matrix.SelectRows(f.T[rule.B], fresh)
			}
			if !f.delta[rule.B].Empty() {
				d = matrix.Union(d, f.delta[rule.B].Restrict(act))
			}
			if d.Empty() && f.delta[rule.C].Empty() {
				continue
			}
			if err := f.activate(rule.C, nil, d); err != nil {
				return false, err
			}
			dm = d
			if !f.delta[rule.C].Empty() {
				m = matrix.ViewRows(f.T[rule.B], act)
			}
		}
		if err := f.derive(ri, dm, f.T[rule.C], f.next); err != nil {
			return false, err
		}
		if err := f.derive(ri, m, f.delta[rule.C], f.next); err != nil {
			return false, err
		}
	}
	f.delta, f.next = f.next, f.delta
	for _, d := range f.delta {
		if d != nil {
			progress = true
		}
	}
	if f.active != nil && f.promote() {
		progress = true
	}
	return progress, nil
}

// derive folds (a*b) \ T^A into T^A and into the next ΔT^A, A being
// the head of rule ri. A witness run logs what T^A gained before it
// looks at the error, since T^A keeps those entries.
func (f *fixpoint) derive(ri int, a, b matrix.Operand, next []*matrix.RowList) error {
	if a.NVals() == 0 || b.NVals() == 0 {
		return nil
	}
	head := f.w.BinRules[ri].A
	added, err := f.run.MulAddRows(f.T[head], a, b)
	if f.witness != nil {
		f.witness.note(ri, added)
	}
	if err != nil || added.Empty() {
		return err
	}
	next[head] = matrix.Union(next[head], added)
	return nil
}
