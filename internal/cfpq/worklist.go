package cfpq

import (
	"mscfpq/internal/exec"
	"mscfpq/internal/grammar"
	"mscfpq/internal/graph"
	"mscfpq/internal/matrix"
)

// Worklist solves all-pairs CFL reachability with the classic dynamic
// programming worklist algorithm (Melski & Reps style), the kind of
// non-linear-algebra solution the paper's future-work section asks to
// compare against. Facts (A, i, j) are propagated one at a time through
// the binary rules; adjacency lists per (nonterminal, vertex) give the
// required joins.
func Worklist(g *graph.Graph, w *grammar.WCNF, opts ...Option) (*Result, error) {
	if err := checkInputs(g, w); err != nil {
		return nil, err
	}
	run, cancel := exec.Build(opts).Start()
	defer cancel()
	return worklistOn(g, w, nil, run)
}

// WorklistMultiSource answers a multiple-source query with the worklist
// solver. It first prunes the graph to the vertices reachable from src
// over the union of all label matrices and their inverses (a sound
// over-approximation of the vertices any derivation from src can touch,
// since grammars may traverse relations backwards), then solves
// all-pairs on the induced subgraph and restricts rows to src. This is
// the natural "handle only the required subgraph" strategy the paper's
// conclusion attributes to non-linear-algebra solutions.
func WorklistMultiSource(g *graph.Graph, w *grammar.WCNF, src *matrix.Vector, opts ...Option) (*matrix.Bool, error) {
	if err := checkInputs(g, w); err != nil {
		return nil, err
	}
	run, cancel := exec.Build(opts).Start()
	defer cancel()
	keep := g.Reachable(src, true)
	r, err := worklistOn(g, w, keep, run)
	if err != nil {
		return nil, err
	}
	return matrix.ExtractRows(r.Start(), src), nil
}

// worklistCheckFacts is how many queue pops the worklist solver
// processes between governor checks.
const worklistCheckFacts = 1024

// worklistOn runs the solver; if keep is non-nil only vertices in keep
// participate. The governor is consulted every worklistCheckFacts
// propagated facts and charged one work unit per derived fact.
func worklistOn(g *graph.Graph, w *grammar.WCNF, keep *matrix.Vector, run *exec.Run) (*Result, error) {
	n := g.NumVertices()
	nnt := w.NumNonterms()
	r := newResult(w, n)

	inKeep := func(v int) bool { return keep == nil || keep.Get(v) }

	type fact struct {
		a    int32
		i, j uint32
	}
	var queue []fact
	// fwd[a][i] lists j with (a,i,j); bwd[a][j] lists i.
	fwd := make([][][]uint32, nnt)
	bwd := make([][][]uint32, nnt)
	for a := 0; a < nnt; a++ {
		fwd[a] = make([][]uint32, n)
		bwd[a] = make([][]uint32, n)
	}
	add := func(a, i, j int) {
		if r.T[a].Get(i, j) {
			return
		}
		r.T[a].Set(i, j)
		fwd[a][i] = append(fwd[a][i], uint32(j))
		bwd[a][j] = append(bwd[a][j], uint32(i))
		queue = append(queue, fact{a: int32(a), i: uint32(i), j: uint32(j)})
	}

	// Seed simple rules restricted to kept vertices. Seeding is
	// O(edges) per rule and polls the governor so queries on
	// terminal-only grammars abort too.
	for _, rule := range w.TermRules {
		if err := run.Err(); err != nil {
			return nil, err
		}
		edge, vertex := grammar.TermLabels(w.Terms[rule.Term])
		g.EdgeMatrix(edge).Iterate(func(i, j int) bool {
			if inKeep(i) && inKeep(j) {
				add(rule.A, i, j)
			}
			return true
		})
		for _, v := range g.VertexSet(vertex).Ints() {
			if inKeep(v) {
				add(rule.A, v, v)
			}
		}
	}
	for a, nullable := range w.Nullable {
		if !nullable {
			continue
		}
		if err := run.Err(); err != nil {
			return nil, err
		}
		if keep != nil {
			for _, v := range keep.Ints() {
				add(a, v, v)
			}
		} else {
			for v := 0; v < n; v++ {
				add(a, v, v)
			}
		}
	}

	// Rule indexes: rules with B on the left position, C on the right.
	byB := make([][]grammar.BinRule, nnt)
	byC := make([][]grammar.BinRule, nnt)
	for _, rule := range w.BinRules {
		byB[rule.B] = append(byB[rule.B], rule)
		byC[rule.C] = append(byC[rule.C], rule)
	}

	popped := 0
	for len(queue) > 0 {
		if popped%worklistCheckFacts == 0 {
			charge := worklistCheckFacts
			if popped == 0 {
				charge = 0
			}
			if err := run.Charge(charge); err != nil {
				return nil, err
			}
		}
		popped++
		f := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		// f is a (B, i, j) fact: extend right with C facts (j, k).
		for _, rule := range byB[f.a] {
			for _, k := range fwd[rule.C][f.j] {
				add(rule.A, int(f.i), int(k))
			}
		}
		// f is a (C, i, j) fact: extend left with B facts (k, i).
		for _, rule := range byC[f.a] {
			for _, k := range bwd[rule.B][f.i] {
				add(rule.A, int(k), int(f.j))
			}
		}
	}
	// The worklist has no matrix rounds; its Work figure is the
	// governor charge (facts propagated).
	r.Work = run.Spent()
	return r, nil
}
