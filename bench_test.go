package mscfpq

// One testing.B benchmark per table/figure of the paper's evaluation
// (experiment index in DESIGN.md §3). Each delegates to the shared
// harness in internal/bench at a reduced scale so `go test -bench=.`
// completes in minutes; `cmd/benchrunner` runs the full-size sweeps and
// writes the tables EXPERIMENTS.md records. After them come the kernel
// micro-benchmarks, and BenchmarkObsOverhead, the metrics-on/off
// reading of the observability layer that `make bench-smoke` prints.

import (
	"math/rand"
	"testing"

	"mscfpq/internal/bench"
	"mscfpq/internal/cfpq"
	"mscfpq/internal/grammar"
	"mscfpq/internal/matrix"
	"mscfpq/internal/obs"
)

func benchConfig() bench.Config {
	cfg := bench.QuickConfig()
	cfg.MaxChunks = 2
	return cfg
}

// BenchmarkTable1Stats regenerates the dataset statistics (E1, Table 1).
func BenchmarkTable1Stats(b *testing.B) {
	cfg := benchConfig()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := bench.Table1(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig2SinglePath measures single-path index construction and
// witness extraction (E2, Figure 2).
func BenchmarkFig2SinglePath(b *testing.B) {
	cfg := benchConfig()
	cfg.Graphs = []string{"core", "pathways", "geospecies"}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := bench.Fig2(cfg, 100); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig3to8MultiSource runs the chunked multiple-source sweep
// comparing Algorithm 2 with Algorithm 3 (E3-E8, Figures 3-8).
func BenchmarkFig3to8MultiSource(b *testing.B) {
	cfg := benchConfig()
	cfg.Graphs = []string{"core", "pathways", "geospecies"}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := bench.Figures(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationBaselines compares Algorithm 2 with the all-pairs
// evaluators plus a row filter (E9).
func BenchmarkAblationBaselines(b *testing.B) {
	cfg := benchConfig()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := bench.Ablation(cfg, "core", 10); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFullStackQuery measures end-to-end GRAPH.QUERY evaluation
// against the raw algorithm (E10, Section 4.4).
func BenchmarkFullStackQuery(b *testing.B) {
	cfg := benchConfig()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := bench.FullStack(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRPQUnification times one regular query through the CFPQ
// driver, checked against the relation-algebra oracle (E11, future work).
func BenchmarkRPQUnification(b *testing.B) {
	cfg := benchConfig()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := bench.RPQUnification(cfg, "core", "subClassOf+", 10); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------
// Micro-benchmarks of the algorithm kernels on a fixed mid-size input,
// for regression tracking of the hot paths behind every experiment.

func benchInput(b *testing.B) (*Graph, *WCNF, *VertexSet) {
	b.Helper()
	g, err := GenerateDataset("core", 1)
	if err != nil {
		b.Fatal(err)
	}
	w, err := ToWCNF(G2())
	if err != nil {
		b.Fatal(err)
	}
	src := matrix.NewVector(g.NumVertices())
	for v := 0; v < 20; v++ {
		src.Set(v)
	}
	return g, w, src
}

func BenchmarkKernelAllPairs(b *testing.B) {
	g, w, _ := benchInput(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cfpq.AllPairs(g, w); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkKernelAllPairsSemiNaive(b *testing.B) {
	g, w, _ := benchInput(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cfpq.AllPairsSemiNaive(g, w); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkKernelMultiSource(b *testing.B) {
	g, w, src := benchInput(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cfpq.MultiSource(g, w, src); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkKernelSmartWarm(b *testing.B) {
	g, w, src := benchInput(b)
	idx, err := cfpq.NewIndex(g, w)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := idx.MultiSourceSmart(src); err != nil {
		b.Fatal(err) // warm the cache
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := idx.MultiSourceSmart(src); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkKernelSmartSweep is the kernel under the wire benchmark's
// sparse-sweep workload: disjoint chunk-10 queries over pathways/G1
// against one index, cut from a seeded permutation of the vertices as
// the wire workload cuts them, with a fresh index and permutation
// whenever a sweep has covered the graph. ns/op and B/op are per query,
// so they read as the per-query fixed cost of Algorithm 3 (small
// fixpoints over a 6238-row graph).
func BenchmarkKernelSmartSweep(b *testing.B) {
	g, err := GenerateDataset("pathways", 1)
	if err != nil {
		b.Fatal(err)
	}
	w, err := ToWCNF(G1())
	if err != nil {
		b.Fatal(err)
	}
	n := g.NumVertices()
	rng := rand.New(rand.NewSource(1))
	var idx *cfpq.Index
	var perm []int
	b.ReportAllocs()
	b.ResetTimer()
	for i, lo := 0, 0; i < b.N; i, lo = i+1, lo+10 {
		if idx == nil || lo+10 > n {
			b.StopTimer()
			if idx, err = cfpq.NewIndex(g, w); err != nil {
				b.Fatal(err)
			}
			perm, lo = rng.Perm(n), 0
			b.StartTimer()
		}
		src := matrix.NewVectorFromIndices(n, perm[lo:lo+10])
		if _, err := idx.MultiSourceSmart(src); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkKernelDenseCold is the kernel under the wire benchmark's
// dense-cold workload: the first chunk-100 query against a fresh index
// over go-hierarchy@0.02/G2, its sources a seeded permutation's first
// hundred, almost all of it fixpoint rounds over rows two-thirds full.
// Besides ns/op and B/op it reports the rounds, the governor charge and
// the answer size per query, which a kernel change must leave as they
// are; compare two commits with the same -benchtime Nx.
func BenchmarkKernelDenseCold(b *testing.B) {
	g, err := GenerateDataset("go-hierarchy", 0.02)
	if err != nil {
		b.Fatal(err)
	}
	w, err := ToWCNF(G2())
	if err != nil {
		b.Fatal(err)
	}
	n := g.NumVertices()
	rng := rand.New(rand.NewSource(1))
	var rounds, work, answer int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src := matrix.NewVectorFromIndices(n, rng.Perm(n)[:100])
		idx, err := cfpq.NewIndex(g, w)
		if err != nil {
			b.Fatal(err)
		}
		r, err := idx.MultiSourceSmart(src)
		if err != nil {
			b.Fatal(err)
		}
		rounds += int64(r.Rounds)
		work += r.Work
		answer += int64(r.Answer().NVals())
	}
	b.ReportMetric(float64(rounds)/float64(b.N), "rounds/op")
	b.ReportMetric(float64(work)/float64(b.N), "work/op")
	b.ReportMetric(float64(answer)/float64(b.N), "answer/op")
}

// BenchmarkKernelManyRounds is the all-sources a^n b^n query over two
// cycles of 100 a-edges and 99 b-edges sharing a vertex, on a fresh
// index: about 20 000 rounds, each a few products of at most 200 rows,
// too short to split into row blocks. It is the per-call cost of the
// product kernel, which a change to how a product is handed out must
// not raise.
func BenchmarkKernelManyRounds(b *testing.B) {
	const p = 100
	g := NewGraph(2 * p)
	for i := 0; i < p; i++ {
		g.AddEdge(i, "a", (i+1)%p)
	}
	prev := 0
	for i := 0; i < p-2; i++ {
		g.AddEdge(prev, "b", p+i)
		prev = p + i
	}
	g.AddEdge(prev, "b", 0)
	w, err := ToWCNF(AnBnGrammar())
	if err != nil {
		b.Fatal(err)
	}
	all := make([]int, g.NumVertices())
	for v := range all {
		all[v] = v
	}
	src := NewVertexSet(g.NumVertices(), all...)
	var rounds int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		idx, err := cfpq.NewIndex(g, w)
		if err != nil {
			b.Fatal(err)
		}
		r, err := idx.MultiSourceSmart(src)
		if err != nil {
			b.Fatal(err)
		}
		rounds += int64(r.Rounds)
	}
	b.ReportMetric(float64(rounds)/float64(b.N), "rounds/op")
}

func BenchmarkKernelGrammarNormalize(b *testing.B) {
	g := grammar.G1()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := grammar.ToWCNF(g); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkObsOverhead times two workloads with the metrics registry on
// and off (obs.SetEnabled): all-pairs G1 on core@0.5, every kernel call
// counted through the governor, and a sweep of three chunk-10
// multiple-source G1 queries on the same graph, cut from a seeded
// permutation. No trace is attached, so the on/off difference is the
// cost of the always-on metric hooks, read against 3% (TESTING.md).
// Compare several runs of the benchmark, each timing on then off, not
// one -count run, which times a mode's repetitions back to back.
func BenchmarkObsOverhead(b *testing.B) {
	g, err := GenerateDataset("core", 0.5)
	if err != nil {
		b.Fatal(err)
	}
	w, err := ToWCNF(G1())
	if err != nil {
		b.Fatal(err)
	}
	n := g.NumVertices()
	perm := rand.New(rand.NewSource(2021)).Perm(n)
	var srcs []*matrix.Vector
	for lo := 0; lo < 30; lo += 10 {
		srcs = append(srcs, matrix.NewVectorFromIndices(n, perm[lo:lo+10]))
	}
	workloads := []struct {
		name string
		run  func() error
	}{
		{"governed-kernel", func() error {
			_, err := cfpq.AllPairs(g, w)
			return err
		}},
		{"multi-source", func() error {
			for _, src := range srcs {
				if _, err := cfpq.MultiSource(g, w, src); err != nil {
					return err
				}
			}
			return nil
		}},
	}
	defer obs.SetEnabled(obs.SetEnabled(true))
	for _, wl := range workloads {
		for _, mode := range []string{"on", "off"} {
			b.Run(wl.name+"/metrics="+mode, func(b *testing.B) {
				obs.SetEnabled(mode == "on")
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if err := wl.run(); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
