package mscfpq

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mscfpq/internal/cfpq"
	"mscfpq/internal/dataset"
	"mscfpq/internal/oracle"
)

// Golden tests: checked-in expected reachable-pair sets for the paper's
// query grammars over the Figure 1 example graph and two small
// deterministic samples shaped like the evaluation datasets (an
// ontology with subClassOf/type for G1/G2, a geospecies-like graph with
// broaderTransitive for Geo). Every CFPQ evaluator must reproduce them
// exactly.
//
// Regenerate with: go test -run TestGolden -update
// (goldens are computed by the independent oracle, never by the
// engines under test).
var updateGolden = flag.Bool("update", false, "rewrite golden files (and sample graphs) from the oracle")

type goldenCase struct {
	name      string // golden file stem
	graphFile string
	grammar   func() (*Grammar, error)
}

func namedGrammar(g *Grammar) func() (*Grammar, error) {
	return func() (*Grammar, error) { return g, nil }
}

func goldenCases() []goldenCase {
	cnd := func() (*Grammar, error) { return LoadGrammar("queries/cnd.txt") }
	return []goldenCase{
		// The Figure 1 example graph: the running-example query has a
		// known nonempty answer; the paper's dataset queries use labels
		// the graph lacks, so their expected sets are exactly empty.
		{"example_cnd", "testdata/example_graph.txt", cnd},
		{"example_g1", "testdata/example_graph.txt", namedGrammar(G1())},
		{"example_g2", "testdata/example_graph.txt", namedGrammar(G2())},
		{"example_geo", "testdata/example_graph.txt", namedGrammar(Geo())},
		{"ontology_g1", "testdata/ontology_sample.txt", namedGrammar(G1())},
		{"ontology_g2", "testdata/ontology_sample.txt", namedGrammar(G2())},
		{"geospecies_geo", "testdata/geospecies_sample.txt", namedGrammar(Geo())},
	}
}

// sampleSpecs are the deterministic generators behind the checked-in
// sample graphs (small analogs of the paper's Table 1 datasets).
var sampleSpecs = map[string]dataset.Spec{
	"testdata/ontology_sample.txt": {
		Name: "ontology-sample", Vertices: 40, Classes: 12, SubClassOf: 22,
		TypeEdges: 26, OtherEdges: 10, TargetDepth: 5, Seed: 101,
	},
	"testdata/geospecies_sample.txt": {
		Name: "geospecies-sample", Vertices: 36, TypeEdges: 12,
		BroaderEdges: 48, TargetDepth: 6, Seed: 106,
	},
}

func goldenPath(name string) string {
	return filepath.Join("testdata", "golden", name+".txt")
}

func readGolden(t *testing.T, name string) [][2]int {
	t.Helper()
	f, err := os.Open(goldenPath(name))
	if err != nil {
		t.Fatalf("missing golden (rerun with -update): %v", err)
	}
	defer f.Close()
	var pairs [][2]int
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		var i, j int
		if _, err := fmt.Sscanf(line, "%d %d", &i, &j); err != nil {
			t.Fatalf("golden %s: bad line %q", name, line)
		}
		pairs = append(pairs, [2]int{i, j})
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return pairs
}

func writeGolden(t *testing.T, name string, pairs [][2]int) {
	t.Helper()
	if err := os.MkdirAll(filepath.Dir(goldenPath(name)), 0o755); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "# Expected start-relation pairs for %s; regenerate with go test -run TestGolden -update\n", name)
	for _, p := range pairs {
		fmt.Fprintf(&b, "%d %d\n", p[0], p[1])
	}
	if err := os.WriteFile(goldenPath(name), []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestGoldenReachablePairs(t *testing.T) {
	if *updateGolden {
		for path, spec := range sampleSpecs {
			if err := SaveGraph(path, dataset.Generate(spec)); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, c := range goldenCases() {
		c := c
		t.Run(c.name, func(t *testing.T) {
			g, err := LoadGraph(c.graphFile)
			if err != nil {
				t.Fatal(err)
			}
			gr, err := c.grammar()
			if err != nil {
				t.Fatal(err)
			}
			w, err := ToWCNF(gr)
			if err != nil {
				t.Fatal(err)
			}
			if *updateGolden {
				writeGolden(t, c.name, oracle.CFPQ(g, w).StartPairs())
			}
			want := readGolden(t, c.name)
			// Guard against a vacuous golden: the sample cases must have
			// nonempty expected sets.
			if strings.HasPrefix(c.name, "ontology_") || strings.HasPrefix(c.name, "geospecies_") || c.name == "example_cnd" {
				if len(want) == 0 {
					t.Fatalf("golden %s is empty; sample lost its answer", c.name)
				}
			}

			all := NewVertexSet(g.NumVertices())
			for v := 0; v < g.NumVertices(); v++ {
				all.Set(v)
			}
			engines := []struct {
				name string
				run  func() ([][2]int, error)
			}{
				{"AllPairs", func() ([][2]int, error) {
					r, err := cfpq.AllPairs(g, w)
					if err != nil {
						return nil, err
					}
					return r.Pairs(), nil
				}},
				{"AllPairsSemiNaive", func() ([][2]int, error) {
					r, err := cfpq.AllPairsSemiNaive(g, w)
					if err != nil {
						return nil, err
					}
					return r.Pairs(), nil
				}},
				{"SinglePath", func() ([][2]int, error) {
					r, err := cfpq.SinglePath(g, w)
					if err != nil {
						return nil, err
					}
					return r.Pairs(), nil
				}},
				{"MultiSource(all)", func() ([][2]int, error) {
					r, err := cfpq.MultiSource(g, w, all)
					if err != nil {
						return nil, err
					}
					return r.Answer().Pairs(), nil
				}},
				{"Index(all)", func() ([][2]int, error) {
					idx, err := NewIndex(g, w)
					if err != nil {
						return nil, err
					}
					r, err := idx.MultiSourceSmart(all)
					if err != nil {
						return nil, err
					}
					return r.Answer().Pairs(), nil
				}},
			}
			for _, e := range engines {
				got, err := e.run()
				if err != nil {
					t.Fatalf("%s: %v", e.name, err)
				}
				if len(got) != len(want) {
					t.Fatalf("%s: %d pairs, golden has %d\ngot %v\nwant %v",
						e.name, len(got), len(want), got, want)
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("%s: pair %d is %v, golden has %v", e.name, i, got[i], want[i])
					}
				}
			}
		})
	}
}
