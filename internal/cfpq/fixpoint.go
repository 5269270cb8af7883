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
// MultiSourceFrom, the Index (MultiSourceSmart and Extension.Rows),
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
// is active or (Algorithm 3) processed. An unrestricted run has every
// row active: ΔM = ΔT^B and M = T^B, with no row extraction.
//
// T stays matrix.Bool, so a product finds a row of T^C by index, and a
// row of T two-thirds full is a bitmap a product ORs a word at a time.
// ΔT, ΔM and M are matrix.RowLists, which hold only their live rows: a
// run restricted to a few sources costs the rows it touches and the
// products they form, never a walk of the n-slot row tables. rows(T, ·)
// are copies (matrix.SelectRows), because seeding grows rows of T in
// place (Bool.Set). Every product is one masked multiply-accumulate,
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
// earlier rule of the same round added, which only finds facts sooner.
// Each entry is also in the next round's ΔT, so every pair of an M entry
// and a T^C entry still meets, in the round the later of the two appears.
type fixpoint struct {
	w     *grammar.WCNF
	run   *exec.Run
	seeds *seeder
	// witness, when set, records a provenance for every entry the run
	// derives (single-path semantics); nil for a Boolean run.
	witness *SinglePathResult

	T     []*matrix.Bool    // relations per nonterminal, grown in place
	delta []*matrix.RowList // ΔT: the entries T gained in the previous round; nil = none

	// The source restriction; active == nil runs unrestricted.
	active []*matrix.Vector // sources whose rows this run computes
	fresh  []*matrix.Vector // the part of active that the previous round activated
	done   []*matrix.Vector // sources never to activate (Algorithm 3's index.TSrc); nil = none

	rounds int
}

// evaluate is the set-up the four index-free callers share: check the
// inputs, start the governor, seed fresh relations (every row, with
// provenance when witness is set; otherwise a restricted run seeds the
// rows it activates), run the driver (unrestricted when srcByNT is nil)
// and stamp the statistics. It also returns the sources the run
// activated.
func evaluate(g *graph.Graph, w *grammar.WCNF, srcByNT map[int]*matrix.Vector, witness bool, opts []Option) (*SinglePathResult, []*matrix.Vector, error) {
	if err := checkInputs(g, w); err != nil {
		return nil, nil, err
	}
	run, cancel := exec.Build(opts).Start()
	defer cancel()
	n := g.NumVertices()
	r := &SinglePathResult{Result: newResult(w, n)}
	f := &fixpoint{w: w, run: run, seeds: newSeeder(g, w), T: r.T}
	var err error
	switch {
	case witness:
		f.witness = r
		err = r.seedProv(run, g)
	case srcByNT == nil:
		err = f.seeds.all(run, r.T, n)
	}
	if err != nil {
		return nil, nil, err
	}
	if srcByNT == nil {
		f.listAll()
	} else if err := f.restrict(srcByNT, n); err != nil {
		return nil, nil, err
	}
	if err := f.solve(); err != nil {
		return nil, nil, err
	}
	r.Rounds, r.Work = f.rounds, run.Spent()
	return r, f.active, nil
}

// listAll sets up an unrestricted run: its first ΔT is every row of the
// seeded T, listed once.
func (f *fixpoint) listAll() {
	f.delta = make([]*matrix.RowList, len(f.T))
	for a, t := range f.T {
		f.delta[a] = matrix.ListRows(t)
	}
}

// restrict installs the requested source sets, less the processed ones,
// as the first round's fresh and active sources, with an empty first ΔT.
func (f *fixpoint) restrict(srcByNT map[int]*matrix.Vector, n int) error {
	f.delta = make([]*matrix.RowList, len(f.T))
	f.active = make([]*matrix.Vector, len(f.T))
	f.fresh = make([]*matrix.Vector, len(f.T))
	for a := range f.T {
		f.active[a] = matrix.NewVector(n)
		f.fresh[a] = matrix.NewVector(n)
	}
	for a, src := range srcByNT {
		if a < 0 || a >= len(f.T) {
			return fmt.Errorf("cfpq: source nonterminal id %d out of range", a)
		}
		if src == nil || src.Size() != n {
			return fmt.Errorf("cfpq: source vector size mismatch (graph has %d vertices)", n)
		}
		if err := f.activate(a, src.Clone(), f.fresh); err != nil {
			return err
		}
		f.active[a] = f.fresh[a].Clone()
	}
	return nil
}

// activate adds to into[a] the candidates that are neither active nor
// processed for nonterminal a, and seeds their rows of T^a; it consumes
// cand.
func (f *fixpoint) activate(a int, cand *matrix.Vector, into []*matrix.Vector) error {
	cand.DiffInPlace(f.active[a])
	if f.done != nil {
		cand.DiffInPlace(f.done[a])
	}
	into[a].UnionInPlace(cand)
	return f.seeds.rows(f.run, f.T[a], a, cand)
}

// solve runs rounds until one adds neither an entry nor a source. On an
// error (cancellation, timeout, budget) T keeps what was derived so far;
// every such entry is a true fact, but no row is known to be complete.
func (f *fixpoint) solve() error {
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
	obs.CFPQRounds.Observe(int64(f.rounds))
	return nil
}

// round applies every binary rule once, installs what that added as the
// next round's ΔT and fresh sources, and reports whether it added any.
func (f *fixpoint) round() (progress bool, err error) {
	next := make([]*matrix.RowList, len(f.T)) // nil where a relation gains nothing
	var nextFresh []*matrix.Vector
	if f.active != nil {
		nextFresh = make([]*matrix.Vector, len(f.T))
		for a := range nextFresh {
			nextFresh[a] = matrix.NewVector(f.active[a].Size())
		}
	}
	for ri, rule := range f.w.BinRules {
		var dm, m matrix.Operand = f.delta[rule.B], f.T[rule.B]
		if f.active != nil {
			act, fresh := f.active[rule.A], f.fresh[rule.A]
			f.run.ObserveFrontier(act.NVals())
			if act.Empty() {
				continue
			}
			if err := f.activate(rule.B, fresh.Clone(), nextFresh); err != nil {
				return false, err
			}
			d := matrix.SelectRows(f.T[rule.B], fresh)
			if !f.delta[rule.B].Empty() {
				d = matrix.Union(d, f.delta[rule.B].Restrict(act))
			}
			if err := f.activate(rule.C, d.Cols(), nextFresh); err != nil {
				return false, err
			}
			dm = d
			if !f.delta[rule.C].Empty() {
				m = matrix.SelectRows(f.T[rule.B], act)
			}
		}
		if err := f.derive(ri, dm, f.T[rule.C], next); err != nil {
			return false, err
		}
		if err := f.derive(ri, m, f.delta[rule.C], next); err != nil {
			return false, err
		}
	}
	f.delta, f.fresh = next, nextFresh
	for a := range next {
		progress = progress || next[a] != nil
	}
	for a := range nextFresh {
		if f.active[a].UnionInPlace(nextFresh[a]) {
			progress = true
		}
	}
	return progress, nil
}

// derive folds (a*b) \ T^A into T^A and into the next ΔT^A, A being
// the head of rule ri. A witness run files the provenance of what T^A
// gained before it looks at the error, since T^A keeps those entries.
func (f *fixpoint) derive(ri int, a, b matrix.Operand, next []*matrix.RowList) error {
	if a.NVals() == 0 || b.NVals() == 0 {
		return nil
	}
	head := f.w.BinRules[ri].A
	var wit map[uint64]uint32
	if f.witness != nil {
		wit = map[uint64]uint32{}
	}
	added, err := f.run.MulAddRows(f.T[head], a, b, wit)
	if wit != nil {
		f.witness.noteBin(ri, added, wit)
	}
	if err != nil || added.Empty() {
		return err
	}
	if next[head] == nil {
		next[head] = added
	} else {
		next[head] = matrix.Union(next[head], added)
	}
	return nil
}
