package cfpq

import (
	"fmt"

	"mscfpq/internal/exec"
	"mscfpq/internal/grammar"
	"mscfpq/internal/graph"
	"mscfpq/internal/matrix"
)

// provKind tags how a relation entry was first derived.
type provKind uint8

const (
	provEdge   provKind = iota // A -> t matched a graph edge
	provVertex                 // A -> t matched a vertex label (self pair)
	provEps                    // A -> eps (trivial path)
	provBin                    // A -> B C split at a mid vertex
)

// provEntry records the first-discovered derivation of a relation entry.
// First-discovery order makes the provenance graph acyclic, so path
// extraction terminates.
type provEntry struct {
	kind provKind
	mid  uint32 // provBin: split vertex
	rule int32  // provBin: BinRules index; provEdge/provVertex: terminal id
}

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
type SinglePathResult struct {
	*Result
	prov []map[uint64]provEntry // per nonterminal
}

// SinglePath runs the all-pairs algorithm while recording, for every
// entry of every relation matrix, the first derivation that produced it
// (a witness mid vertex and rule for binary steps). The extra bookkeeping
// is the measured cost of single-path semantics over plain reachability.
func SinglePath(g *graph.Graph, w *grammar.WCNF, opts ...Option) (*SinglePathResult, error) {
	r, _, err := evaluate(g, w, nil, true, opts)
	return r, err
}

// MSSinglePathResult is a multiple-source result with single-path
// semantics: the relation matrices are restricted the way Algorithm 2
// restricts them, and every derived fact carries enough provenance to
// reconstruct one witness path.
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
// semantics: it evaluates the query only for paths starting at src
// while recording, for every derived fact, the first derivation that
// produced it. Combining the two is the natural extension of the
// paper's Figure 2 experiment (single-path extraction) to the
// multiple-source setting the paper advocates.
func MultiSourceSinglePath(g *graph.Graph, w *grammar.WCNF, src *matrix.Vector, opts ...Option) (*MSSinglePathResult, error) {
	if src == nil {
		return nil, fmt.Errorf("cfpq: nil source vector")
	}
	r, active, err := evaluate(g, w, map[int]*matrix.Vector{w.Start: src}, true, opts)
	if err != nil {
		return nil, err
	}
	return &MSSinglePathResult{SinglePathResult: r, Src: active, Sources: src.Clone()}, nil
}

// seedProv seeds the relations from the simple and eps rules,
// recording terminal provenance. Edge beats vertex label if both
// somehow apply; entries record their first deriver. Seeding is
// O(edges) per rule, so it polls the governor like the fixpoint: a
// terminal-only grammar must still abort.
func (r *SinglePathResult) seedProv(run *exec.Run, g *graph.Graph) error {
	w := r.W
	r.prov = make([]map[uint64]provEntry, w.NumNonterms())
	for a := range r.prov {
		r.prov[a] = map[uint64]provEntry{}
	}
	seed := func(a, i, j int, p provEntry) {
		if !r.T[a].Get(i, j) {
			r.prov[a][matrix.Key(i, j)] = p
			r.T[a].Set(i, j)
		}
	}
	for _, rule := range w.TermRules {
		if err := run.Err(); err != nil {
			return err
		}
		edge, vertex := grammar.TermLabels(w.Terms[rule.Term])
		g.EdgeMatrix(edge).Iterate(func(i, j int) bool {
			seed(rule.A, i, j, provEntry{kind: provEdge, rule: int32(rule.Term)})
			return true
		})
		for _, v := range g.VertexSet(vertex).Ints() {
			seed(rule.A, v, v, provEntry{kind: provVertex, rule: int32(rule.Term)})
		}
	}
	for a, nullable := range w.Nullable {
		if !nullable {
			continue
		}
		if err := run.Err(); err != nil {
			return err
		}
		for i := 0; i < g.NumVertices(); i++ {
			seed(a, i, i, provEntry{kind: provEps})
		}
	}
	return nil
}

// noteBin files rule ri and its witness mid vertex as the provenance of
// every entry the driver added to the rule's head. Both factors of a
// witness are entries T already held (the driver's left operands are
// rows of T^B, and MulAddRows folds its product in after taking it), so
// provenance stays acyclic in discovery order.
func (r *SinglePathResult) noteBin(ri int, added *matrix.RowList, wit map[uint64]uint32) {
	prov := r.prov[r.W.BinRules[ri].A]
	added.Iterate(func(i, j int) bool {
		key := matrix.Key(i, j)
		prov[key] = provEntry{kind: provBin, mid: wit[key], rule: int32(ri)}
		return true
	})
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

const maxExtractDepth = 1 << 22 // guards against provenance corruption

func (r *SinglePathResult) extract(a, src, dst int, steps *[]PathStep, depth int) error {
	if depth > maxExtractDepth {
		return fmt.Errorf("cfpq: path extraction exceeded depth bound (corrupt provenance?)")
	}
	p, ok := r.prov[a][matrix.Key(src, dst)]
	if !ok {
		return fmt.Errorf("cfpq: missing provenance for (%s,%d,%d)", r.W.Nonterms[a], src, dst)
	}
	switch p.kind {
	case provEps:
		return nil
	case provEdge:
		*steps = append(*steps, PathStep{Src: src, Dst: dst, Label: r.W.Terms[p.rule]})
		return nil
	case provVertex:
		*steps = append(*steps, PathStep{Src: src, Dst: dst, Label: r.W.Terms[p.rule], VertexLabel: true})
		return nil
	case provBin:
		rule := r.W.BinRules[p.rule]
		if err := r.extract(rule.B, src, int(p.mid), steps, depth+1); err != nil {
			return err
		}
		return r.extract(rule.C, int(p.mid), dst, steps, depth+1)
	default:
		return fmt.Errorf("cfpq: unknown provenance kind %d", p.kind)
	}
}
