// Package dataset generates deterministic synthetic analogs of the
// CFPQ_Data graphs the paper evaluates on (Table 1). The original
// dataset is an online artifact; each analog reproduces the structural
// role of its namesake — ontology-style subClassOf hierarchies with
// typed instances, the geospecies broaderTransitive taxonomy, the dense
// deep go-hierarchy — with vertex/edge budgets matching the published
// counts, optionally scaled down for laptop-class machines. DESIGN.md §4
// documents the substitution.
package dataset

import (
	"fmt"
	"math/rand"

	"mscfpq/internal/graph"
)

// Spec describes one synthetic graph.
type Spec struct {
	Name     string
	Vertices int
	// Classes is the size of the subClassOf hierarchy (the first ids).
	Classes int
	// SubClassOf, TypeEdges, BroaderEdges, OtherEdges are edge budgets
	// per label; OtherEdges are labeled "relatedTo".
	SubClassOf   int
	TypeEdges    int
	BroaderEdges int
	OtherEdges   int
	// TargetDepth is the intended height of the subClassOf /
	// broaderTransitive hierarchy (real-world ontologies are 10-40
	// levels deep). The generator picks each vertex's parent within a
	// window of preceding ids sized so the expected depth matches,
	// independent of scaling.
	TargetDepth int
	// Seed makes generation deterministic per graph.
	Seed int64
}

// levels partitions n hierarchy vertices into targetDepth contiguous
// id blocks. Every hierarchy edge points from a vertex to a strictly
// lower block, so the longest parent chain is exactly the number of
// levels — matching how real ontologies are broad but shallow.
type levels struct {
	size int // vertices per level
}

func newLevels(n, targetDepth int) levels {
	if targetDepth < 1 {
		targetDepth = 16
	}
	size := n / targetDepth
	if size < 1 {
		size = 1
	}
	return levels{size: size}
}

// start returns the first id of vertex i's level.
func (l levels) start(i int) int { return (i / l.size) * l.size }

// Registry returns the specs of the paper's eight evaluation graphs at
// their published sizes (vertex/edge counts from the CFPQ_Data dataset
// the paper cites; Table 1 in the draft is empty, see DESIGN.md).
func Registry() []Spec {
	return []Spec{
		{Name: "core", Vertices: 1323, Classes: 200, SubClassOf: 178, TypeEdges: 706, OtherEdges: 1868, TargetDepth: 10, Seed: 101},
		{Name: "pathways", Vertices: 6238, Classes: 3200, SubClassOf: 3117, TypeEdges: 3118, OtherEdges: 6128, TargetDepth: 12, Seed: 102},
		{Name: "go-hierarchy", Vertices: 45007, Classes: 45007, SubClassOf: 490109, TypeEdges: 0, OtherEdges: 0, TargetDepth: 16, Seed: 103},
		{Name: "enzyme", Vertices: 48815, Classes: 8400, SubClassOf: 8163, TypeEdges: 14989, OtherEdges: 63391, TargetDepth: 10, Seed: 104},
		{Name: "eclass_514en", Vertices: 239111, Classes: 92000, SubClassOf: 90962, TypeEdges: 72517, OtherEdges: 360248, TargetDepth: 12, Seed: 105},
		{Name: "geospecies", Vertices: 450609, Classes: 0, SubClassOf: 0, TypeEdges: 89065, BroaderEdges: 20867, OtherEdges: 2091600, TargetDepth: 30, Seed: 106},
		{Name: "go", Vertices: 272770, Classes: 92000, SubClassOf: 90512, TypeEdges: 58483, OtherEdges: 385316, TargetDepth: 16, Seed: 107},
		{Name: "taxonomy", Vertices: 5728398, Classes: 2200000, SubClassOf: 2112637, TypeEdges: 2508635, OtherEdges: 10300853, TargetDepth: 40, Seed: 108},
	}
}

// ByName returns the registry spec with the given name.
func ByName(name string) (Spec, error) {
	for _, s := range Registry() {
		if s.Name == name {
			return s, nil
		}
	}
	return Spec{}, fmt.Errorf("dataset: unknown graph %q", name)
}

// Scaled returns the spec with every size multiplied by f (>0, typically
// <= 1), keeping at least minimal structure. Scaling preserves the
// edge/vertex ratios, which drive the algorithms' relative behaviour.
func Scaled(s Spec, f float64) Spec {
	if f <= 0 {
		panic(fmt.Sprintf("dataset: non-positive scale %v", f))
	}
	if f == 1 {
		return s
	}
	scale := func(n int) int {
		if n == 0 {
			return 0
		}
		v := int(float64(n) * f)
		if v < 1 {
			v = 1
		}
		return v
	}
	out := s
	out.Name = fmt.Sprintf("%s@%.3g", s.Name, f)
	out.Vertices = scale(s.Vertices)
	out.Classes = scale(s.Classes)
	if out.Classes > out.Vertices {
		out.Classes = out.Vertices
	}
	out.SubClassOf = scale(s.SubClassOf)
	out.TypeEdges = scale(s.TypeEdges)
	out.BroaderEdges = scale(s.BroaderEdges)
	out.OtherEdges = scale(s.OtherEdges)
	return out
}

// Generate materializes the spec into a graph. The same spec always
// yields the same graph.
func Generate(s Spec) *graph.Graph {
	if s.Vertices <= 0 {
		panic(fmt.Sprintf("dataset: spec %q has no vertices", s.Name))
	}
	rng := rand.New(rand.NewSource(s.Seed))
	g := graph.New(s.Vertices)

	// subClassOf hierarchy over the first Classes ids: a spanning forest
	// biased to parents within the depth window, then extra DAG edges up
	// to the budget (dense multi-parent hierarchies like go-hierarchy).
	if s.Classes > 1 && s.SubClassOf > 0 {
		addHierarchy(g, rng, "subClassOf", s.Classes, s.SubClassOf, s.TargetDepth)
	}

	// type edges: instances (ids >= Classes) point at classes; if there
	// are no instances (go-hierarchy style) the budget is zero anyway.
	if s.TypeEdges > 0 {
		classes := s.Classes
		if classes == 0 {
			classes = s.Vertices // geospecies: types point into the taxonomy
		}
		instances := s.Vertices - s.Classes
		added := 0
		for guard := 0; added < s.TypeEdges && guard < 20*s.TypeEdges; guard++ {
			var inst int
			if instances > 0 {
				inst = s.Classes + rng.Intn(instances)
			} else {
				inst = rng.Intn(s.Vertices)
			}
			class := rng.Intn(classes)
			if !g.HasEdge(inst, "type", class) {
				g.AddEdge(inst, "type", class)
				added++
			}
		}
	}

	// broaderTransitive taxonomy (geospecies): a deep forest over a
	// dedicated prefix of vertices plus a few cross links.
	if s.BroaderEdges > 0 {
		taxa := s.BroaderEdges + 1
		if taxa > s.Vertices {
			taxa = s.Vertices
		}
		addHierarchy(g, rng, "broaderTransitive", taxa, s.BroaderEdges, s.TargetDepth)
	}

	// relatedTo filler edges reproduce the graphs' total edge counts.
	if s.OtherEdges > 0 {
		added := 0
		for guard := 0; added < s.OtherEdges && guard < 20*s.OtherEdges; guard++ {
			u, v := rng.Intn(s.Vertices), rng.Intn(s.Vertices)
			if u != v && !g.HasEdge(u, "relatedTo", v) {
				g.AddEdge(u, "relatedTo", v)
				added++
			}
		}
	}
	return g
}

// addHierarchy wires a leveled DAG over the first n vertex ids: a
// spanning forest linking each vertex to a parent in the previous level
// block, then extra multi-parent edges into arbitrary lower levels up
// to the edge budget. Edges always cross into a strictly lower level,
// bounding the hierarchy depth by targetDepth regardless of density.
func addHierarchy(g *graph.Graph, rng *rand.Rand, label string, n, budget, targetDepth int) {
	if n < 2 || budget < 1 {
		return
	}
	lv := newLevels(n, targetDepth)
	added := 0
	for i := lv.size; i < n && added < budget; i++ {
		prevStart := lv.start(i) - lv.size
		g.AddEdge(i, label, prevStart+rng.Intn(lv.size))
		added++
	}
	for guard := 0; added < budget && guard < 20*budget; guard++ {
		i := lv.size + rng.Intn(n-lv.size)
		parent := rng.Intn(lv.start(i))
		if !g.HasEdge(i, label, parent) {
			g.AddEdge(i, label, parent)
			added++
		}
	}
}

// LinearChain builds a chain of n a-edges followed by n b-edges, the
// benign counterpart of the two-cycle a^n b^n worst case.
func LinearChain(n int) *graph.Graph {
	g := graph.New(2*n + 1)
	for i := 0; i < n; i++ {
		g.AddEdge(i, "a", i+1)
		g.AddEdge(n+i, "b", n+i+1)
	}
	return g
}
