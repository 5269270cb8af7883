package cfpq

import (
	"fmt"

	"mscfpq/internal/grammar"
	"mscfpq/internal/graph"
	"mscfpq/internal/matrix"
)

// PathStep is one edge of an extracted path; for vertex-label terminals
// Src == Dst and Label is the vertex label.
type PathStep struct {
	Src, Dst int
	Label    string
	// VertexLabel marks a zero-length step contributed by a vertex label
	// (Definition 2.14 interleaves vertex labels into path words).
	VertexLabel bool
}

// SinglePathResult is an all-pairs result that can additionally
// reconstruct one witness path per reachability fact, following the
// single-path semantics of Terekhov et al. (GRADES-NDA'20) that the
// paper's Figure 2 experiment measures.
//
// A witness needs only each entry's height (Azimov & Grigorev), the
// point at which the run derived it: 0 for a seed fact, otherwise the
// number of the driver's derive call that added it, as its log holds.
// A derive call takes its product before it folds the result into T, so
// every entry it adds has a mid vertex whose two factors are of lower
// height; numbering rounds instead would not do, since T grows in place
// within a round (fixpoint). Extraction searches for such a mid vertex.
type SinglePathResult struct {
	*Result
	seeds *seeder        // the terminal matches: the facts of height 0
	log   [][]derivation // per nonterminal, by step
	steps int            // derive calls numbered so far
}

// A derivation is what one derive call added to the relation of rule's
// head, all of height step.
type derivation struct {
	step, rule int
	added      *matrix.RowList
}

// logging makes r the derivation log of a run seeded by s, a fresh
// seeder, and returns it. It looks the terminals up now, so extraction
// only reads s.
func (r *SinglePathResult) logging(s *seeder) *SinglePathResult {
	s.load()
	r.seeds, r.log = s, make([][]derivation, len(r.T))
	return r
}

// note logs what derive call number steps+1, of rule ri, added. The
// kernel allocated added and nothing writes it afterwards, so the log
// shares it.
func (r *SinglePathResult) note(ri int, added *matrix.RowList) {
	r.steps++
	if a := r.W.BinRules[ri].A; !added.Empty() {
		r.log[a] = append(r.log[a], derivation{step: r.steps, rule: ri, added: added})
	}
}

// SinglePath runs the all-pairs algorithm while logging what each
// product added (see SinglePathResult), so that Path finds one witness
// path per entry. The run, its rounds and its work are
// AllPairsSemiNaive's.
func SinglePath(g *graph.Graph, w *grammar.WCNF, opts ...Option) (*SinglePathResult, error) {
	r, _, err := evaluate(g, w, nil, true, opts)
	return r, err
}

// MSSinglePathResult is a multiple-source result with single-path
// semantics: the relation matrices are restricted the way Algorithm 2
// restricts them, and every fact they hold has a witness path.
type MSSinglePathResult struct {
	*SinglePathResult
	// Src holds the accumulated TSrc source sets, as in MSResult.
	Src []*matrix.Vector
	// Sources is the original query source set.
	Sources *matrix.Vector
}

// Answer returns the start-relation pairs restricted to the queried
// sources (see MSResult.Answer).
func (r *MSSinglePathResult) Answer() *matrix.Bool {
	return matrix.ExtractRows(r.Start(), r.Sources)
}

// MultiSourceSinglePath combines Algorithm 2 with single-path
// semantics: it evaluates the query only for paths starting at src, as
// MultiSource does, while logging what each product added; a seed fact
// of a row activated mid-run is of height 0 like any other. Combining
// the two is the natural extension of the paper's Figure 2 experiment
// (single-path extraction) to the multiple-source setting the paper
// advocates.
func MultiSourceSinglePath(g *graph.Graph, w *grammar.WCNF, src *matrix.Vector, opts ...Option) (*MSSinglePathResult, error) {
	if src == nil {
		return nil, fmt.Errorf("cfpq: nil source vector")
	}
	r, active, err := evaluate(g, w, src, true, opts)
	if err != nil {
		return nil, err
	}
	return &MSSinglePathResult{SinglePathResult: r, Src: active, Sources: src.Clone()}, nil
}

// Path reconstructs one path witnessing (src, dst) in the start
// relation. It returns an error if the pair is not in the relation.
// Trivial (eps) derivations yield an empty step list.
func (r *SinglePathResult) Path(src, dst int) ([]PathStep, error) {
	return r.PathFor(r.W.Nonterms[r.W.Start], src, dst)
}

// PathFor reconstructs one path witnessing (src, dst) in the relation of
// the named nonterminal.
func (r *SinglePathResult) PathFor(nonterm string, src, dst int) ([]PathStep, error) {
	a := r.W.NontermID(nonterm)
	if a < 0 {
		return nil, fmt.Errorf("cfpq: unknown nonterminal %q", nonterm)
	}
	if !r.T[a].Get(src, dst) {
		return nil, fmt.Errorf("cfpq: pair (%d,%d) not in relation of %s", src, dst, nonterm)
	}
	var steps []PathStep
	if err := r.extract(a, src, dst, &steps, 0); err != nil {
		return nil, err
	}
	return steps, nil
}

// Word returns the label word of a step sequence.
func Word(steps []PathStep) []string {
	out := make([]string, len(steps))
	for i, s := range steps {
		out[i] = s.Label
	}
	return out
}

// extract appends a path for (src, dst) in T^a: its step when it is a
// seed fact, otherwise, for the derivation of height s that added it,
// a path for each factor of a mid vertex below s. Heights fall strictly
// from at most r.steps, so no sound log recurses deeper than that.
func (r *SinglePathResult) extract(a, src, dst int, steps *[]PathStep, depth int) error {
	if depth > r.steps {
		return fmt.Errorf("cfpq: path extraction exceeded depth bound %d (corrupt log?)", r.steps)
	}
	if step, ok := r.seed(a, src, dst); ok {
		if step.Label != "" {
			*steps = append(*steps, step)
		}
		return nil
	}
	d := r.first(a, src, dst, r.steps+1)
	if d == nil {
		return fmt.Errorf("cfpq: no derivation of (%s,%d,%d)", r.W.Nonterms[a], src, dst)
	}
	rule := r.W.BinRules[d.rule]
	k, ok := r.mid(rule, src, dst, d.step)
	if !ok {
		return fmt.Errorf("cfpq: no witness below step %d for (%s,%d,%d)", d.step, r.W.Nonterms[a], src, dst)
	}
	if err := r.extract(rule.B, src, k, steps, depth+1); err != nil {
		return err
	}
	return r.extract(rule.C, k, dst, steps, depth+1)
}

// seed reports whether (i, j) is a seed fact of T^a, and its step: the
// edge, else the vertex label, of the first rule a -> t that matches
// it, else, for a -> eps, none (an empty Label).
func (r *SinglePathResult) seed(a, i, j int) (PathStep, bool) {
	for _, rule := range r.W.TermRules {
		if rule.A != a {
			continue
		}
		step := PathStep{Src: i, Dst: j, Label: r.W.Terms[rule.Term]}
		if m := r.seeds.edges[rule.Term]; m != nil && m.Get(i, j) {
			return step, true
		}
		if v := r.seeds.verts[rule.Term]; v != nil && i == j && v.Get(i) {
			step.VertexLabel = true
			return step, true
		}
	}
	return PathStep{}, i == j && r.W.Nullable[a]
}

// first returns the derivation of T^a below step s that added (i, j),
// nil for none.
func (r *SinglePathResult) first(a, i, j, s int) *derivation {
	for x := range r.log[a] {
		if d := &r.log[a][x]; d.step >= s {
			break
		} else if d.added.Has(i, j) {
			return d
		}
	}
	return nil
}

// below reports whether (i, j) is in T^a with a height below s.
func (r *SinglePathResult) below(a, i, j, s int) bool {
	_, seed := r.seed(a, i, j)
	return seed || r.first(a, i, j, s) != nil
}

// mid returns a mid vertex k of (i, j) for rule A -> B C, with (i, k) in
// T^B and (k, j) in T^C both below height s. Row i of T^B is the
// candidates; (k, j) in T^C is the cheap test, so it goes first.
func (r *SinglePathResult) mid(rule grammar.BinRule, i, j, s int) (k int, ok bool) {
	tc := r.T[rule.C]
	r.T[rule.B].EachCol(i, func(c int) bool {
		k, ok = c, tc.Get(c, j) && r.below(rule.C, c, j, s) && r.below(rule.B, i, c, s)
		return !ok
	})
	return k, ok
}
