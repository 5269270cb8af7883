package bench

import (
	"bytes"
	"strings"
	"testing"
)

// tinyConfig keeps unit-test runs fast: small graphs, tiny sweeps.
func tinyConfig() Config {
	cfg := QuickConfig()
	cfg.Graphs = []string{"core", "geospecies"}
	cfg.Scales = map[string]float64{"core": 0.2, "geospecies": 0.002}
	cfg.ChunkSizes = []int{1, 5}
	cfg.MaxChunks = 2
	return cfg
}

func TestTable1(t *testing.T) {
	rep, err := Table1(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 2 {
		t.Fatalf("rows = %d", len(rep.Rows))
	}
	var buf bytes.Buffer
	if err := rep.Render(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Table1", "#subClassOf", "core", "geospecies"} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("render missing %q:\n%s", want, buf.String())
		}
	}
}

func TestFig2(t *testing.T) {
	rep, err := Fig2(tinyConfig(), 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 2 {
		t.Fatalf("rows = %d", len(rep.Rows))
	}
}

func TestFiguresSweep(t *testing.T) {
	series, err := Figures(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 2 {
		t.Fatalf("series = %d", len(series))
	}
	for _, s := range series {
		if len(s.Points) == 0 {
			t.Fatalf("no points for %s", s.Graph)
		}
		for _, p := range s.Points {
			if p.Chunks == 0 || p.MSMean < 0 || p.SmartMean < 0 {
				t.Fatalf("bad point %+v", p)
			}
		}
	}
	rep := FiguresReport(series)
	if len(rep.Rows) == 0 {
		t.Fatal("empty figures report")
	}
}

func TestAblationAgreement(t *testing.T) {
	rep, err := Ablation(tinyConfig(), "core", 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 3 { // Algorithm 2, all-pairs, semi-naive
		t.Fatalf("rows = %v", rep.Rows)
	}
}

func TestFullStackAgreement(t *testing.T) {
	rep, err := FullStack(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 3 {
		t.Fatalf("rows = %v", rep.Rows)
	}
}

func TestRPQUnification(t *testing.T) {
	rep, err := RPQUnification(tinyConfig(), "core", "subClassOf+", 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 2 { // rpq.Eval, oracle
		t.Fatalf("rows = %v", rep.Rows)
	}
}

func TestConfigHelpers(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.scaleFor("core") != 1 {
		t.Fatal("core scale wrong")
	}
	if cfg.scaleFor("unknown") != 1 {
		t.Fatal("fallback scale wrong")
	}
	cfg.Scale = 0.5
	delete(cfg.Scales, "core")
	if cfg.scaleFor("core") != 0.5 {
		t.Fatal("global scale not applied")
	}
	chunks := cfg.chunks(10, 3)
	if len(chunks) == 0 || chunks[0].NVals() != 3 {
		t.Fatalf("chunks = %v", chunks)
	}
	// Chunks are disjoint.
	seen := map[int]bool{}
	for _, c := range chunks {
		for _, v := range c.Ints() {
			if seen[v] {
				t.Fatal("chunks overlap")
			}
			seen[v] = true
		}
	}
	// Oversized chunk clamps to n.
	if got := cfg.chunks(4, 100); len(got) != 1 || got[0].NVals() != 4 {
		t.Fatalf("clamped chunks = %v", got)
	}
}
