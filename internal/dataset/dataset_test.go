package dataset

import (
	"testing"

	"mscfpq/internal/cfpq"
	"mscfpq/internal/grammar"
	"mscfpq/internal/matrix"
)

func TestRegistryComplete(t *testing.T) {
	specs := Registry()
	if len(specs) != 8 {
		t.Fatalf("registry has %d specs, want 8 (Table 1)", len(specs))
	}
	seen := map[string]bool{}
	for _, s := range specs {
		if seen[s.Name] {
			t.Fatalf("duplicate spec %q", s.Name)
		}
		seen[s.Name] = true
		if s.Vertices <= 0 {
			t.Fatalf("%s: no vertices", s.Name)
		}
	}
	for _, want := range []string{"core", "eclass_514en", "enzyme", "geospecies", "go", "go-hierarchy", "pathways", "taxonomy"} {
		if !seen[want] {
			t.Fatalf("missing Table 1 graph %q", want)
		}
	}
}

func TestByName(t *testing.T) {
	s, err := ByName("core")
	if err != nil || s.Name != "core" {
		t.Fatalf("ByName(core) = %v, %v", s, err)
	}
	if _, err := ByName("nope"); err == nil {
		t.Fatal("expected error for unknown name")
	}
}

func TestGenerateMatchesBudgets(t *testing.T) {
	s, _ := ByName("core")
	g := Generate(s)
	if g.NumVertices() != s.Vertices {
		t.Fatalf("vertices = %d, want %d", g.NumVertices(), s.Vertices)
	}
	if got := g.EdgeCount("subClassOf"); got != s.SubClassOf {
		t.Fatalf("subClassOf = %d, want %d", got, s.SubClassOf)
	}
	if got := g.EdgeCount("type"); got != s.TypeEdges {
		t.Fatalf("type = %d, want %d", got, s.TypeEdges)
	}
	if got := g.EdgeCount("relatedTo"); got != s.OtherEdges {
		t.Fatalf("relatedTo = %d, want %d", got, s.OtherEdges)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	s, _ := ByName("pathways")
	s = Scaled(s, 0.1)
	a, b := Generate(s), Generate(s)
	for _, l := range a.EdgeLabels() {
		if !a.EdgeMatrix(l).Equal(b.EdgeMatrix(l)) {
			t.Fatalf("label %q differs between identical generations", l)
		}
	}
}

func TestScaledPreservesRatios(t *testing.T) {
	s, _ := ByName("enzyme")
	half := Scaled(s, 0.5)
	if half.Vertices != s.Vertices/2 {
		t.Fatalf("vertices = %d", half.Vertices)
	}
	ratioFull := float64(s.SubClassOf) / float64(s.Vertices)
	ratioHalf := float64(half.SubClassOf) / float64(half.Vertices)
	if ratioHalf < ratioFull*0.9 || ratioHalf > ratioFull*1.1 {
		t.Fatalf("subClassOf ratio drifted: %v vs %v", ratioHalf, ratioFull)
	}
	if Scaled(s, 1) != s {
		t.Fatal("identity scale must be a no-op")
	}
}

func TestScaledRejectsNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Scaled(Spec{Vertices: 10}, 0)
}

func TestGeospeciesAnalogHasBroader(t *testing.T) {
	s, _ := ByName("geospecies")
	g := Generate(Scaled(s, 0.01))
	if g.EdgeCount("broaderTransitive") == 0 {
		t.Fatal("geospecies analog must have broaderTransitive edges")
	}
	if g.EdgeCount("subClassOf") != 0 {
		t.Fatal("geospecies analog must not have subClassOf edges")
	}
}

func TestGoHierarchyAnalogIsDenseDAG(t *testing.T) {
	s, _ := ByName("go-hierarchy")
	g := Generate(Scaled(s, 0.02))
	// All edges are subClassOf and average out-degree is far above 1.
	if g.EdgeCount("subClassOf") != g.NumEdges() {
		t.Fatal("go-hierarchy analog must be pure subClassOf")
	}
	avg := float64(g.NumEdges()) / float64(g.NumVertices())
	if avg < 3 {
		t.Fatalf("go-hierarchy analog too sparse: avg degree %.2f", avg)
	}
}

// The generated ontologies must actually exercise the paper's queries:
// G2 over a scaled analog yields a non-empty same-generation relation.
func TestGeneratedGraphAnswersG2(t *testing.T) {
	s, _ := ByName("core")
	g := Generate(s)
	w := grammar.MustWCNF(grammar.G2())
	src := matrix.NewVector(g.NumVertices())
	for v := 0; v < 50; v++ {
		src.Set(v)
	}
	ms, err := cfpq.MultiSource(g, w, src)
	if err != nil {
		t.Fatal(err)
	}
	if ms.Answer().NVals() == 0 {
		t.Fatal("G2 over core analog returned nothing; hierarchy too flat")
	}
}

func TestGeoQueryOnGeospeciesAnalog(t *testing.T) {
	s, _ := ByName("geospecies")
	g := Generate(Scaled(s, 0.02))
	w := grammar.MustWCNF(grammar.Geo())
	src := matrix.NewVector(g.NumVertices())
	for v := 0; v < 100; v++ {
		src.Set(v)
	}
	ms, err := cfpq.MultiSource(g, w, src)
	if err != nil {
		t.Fatal(err)
	}
	if ms.Answer().NVals() == 0 {
		t.Fatal("Geo query over geospecies analog returned nothing")
	}
}

// hierarchyDepth measures the longest parent chain over a label by
// dynamic programming (the graph is a DAG by construction: every edge
// goes from a higher id to a lower id).
func hierarchyDepth(t *testing.T, s Spec, label string) int {
	t.Helper()
	g := Generate(s)
	depth := make([]int, g.NumVertices())
	maxD := 0
	m := g.EdgeMatrix(label)
	for i := 0; i < g.NumVertices(); i++ {
		for _, p := range m.Row(i) {
			if int(p) >= i {
				t.Fatalf("%s: hierarchy edge %d->%d is not id-decreasing", s.Name, i, p)
			}
			if d := depth[p] + 1; d > depth[i] {
				depth[i] = d
			}
		}
		if depth[i] > maxD {
			maxD = depth[i]
		}
	}
	return maxD
}

// Real ontologies are 10-40 levels deep; the generator must stay in
// that regime at every scale, or the matrix fixpoint iteration counts
// (∝ derivation depth) become unrealistic.
func TestHierarchyDepthRealistic(t *testing.T) {
	for _, name := range []string{"core", "enzyme", "go-hierarchy"} {
		s, _ := ByName(name)
		for _, f := range []float64{1, 0.1} {
			sc := Scaled(s, f)
			if sc.Classes < 100 {
				continue
			}
			d := hierarchyDepth(t, sc, "subClassOf")
			if d < sc.TargetDepth/3 || d > sc.TargetDepth*4 {
				t.Errorf("%s depth = %d, target %d", sc.Name, d, sc.TargetDepth)
			}
		}
	}
	geo, _ := ByName("geospecies")
	geo = Scaled(geo, 0.05)
	if d := hierarchyDepth(t, geo, "broaderTransitive"); d < 8 || d > 120 {
		t.Errorf("geospecies broader depth = %d", d)
	}
}

func TestLinearChain(t *testing.T) {
	g := LinearChain(5)
	w := grammar.MustWCNF(grammar.AnBn("a", "b"))
	r, err := cfpq.AllPairs(g, w)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Start().Get(0, 10) {
		t.Fatalf("chain relation missing (0,10): %v", r.Pairs())
	}
}
