package mscfpq

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"mscfpq/internal/cfpq"
	"mscfpq/internal/obs"
)

// TestFacadeEvalCFPQTraceFigure1 runs the paper's running-example query
// (c^n y d^n, Section 2.3) over the Figure 1 graph through EvalCFPQ
// with a trace attached, and checks the span tree:
// one "round N" child per fixpoint iteration, in order, with kernel
// counter totals that exactly match the metrics registry's delta over
// the same evaluation.
func TestFacadeEvalCFPQTraceFigure1(t *testing.T) {
	g, err := LoadGraph("testdata/example_graph.txt")
	if err != nil {
		t.Fatal(err)
	}
	gr, err := LoadGrammar("queries/cnd.txt")
	if err != nil {
		t.Fatal(err)
	}
	w, err := ToWCNF(gr)
	if err != nil {
		t.Fatal(err)
	}

	// Untraced all-pairs reference.
	ref, err := EvalCFPQ(g, w, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(ref.Pairs()) == 0 {
		t.Fatal("running-example query has a known nonempty answer")
	}

	// Traced multiple-source run over every vertex: identical answer.
	src := NewVertexSet(g.NumVertices(), 0, 1, 2, 3, 4, 5)
	tr := NewTrace("cfpq")
	before := obs.Default.Snapshot()
	res, err := EvalCFPQ(g, w, src, WithTrace(tr))
	if err != nil {
		t.Fatal(err)
	}
	delta := obs.Default.Snapshot().Sub(before)
	tr.Close()

	got, want := res.Pairs(), ref.Pairs()
	if len(got) != len(want) {
		t.Fatalf("traced answer %v differs from reference %v", got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("traced answer %v differs from reference %v", got, want)
		}
	}

	// Span-tree shape: the root holds one child per fixpoint round, in
	// order, and nothing else.
	root := tr.Root()
	if root.Name != "cfpq" {
		t.Fatalf("root span = %q", root.Name)
	}
	ms, err := cfpq.MultiSource(g, w, src)
	if err != nil {
		t.Fatal(err)
	}
	if len(root.Children) == 0 || len(root.Children) != ms.Rounds {
		t.Fatalf("%d round spans for %d rounds", len(root.Children), ms.Rounds)
	}
	for i, c := range root.Children {
		if want := fmt.Sprintf("round %d", i+1); c.Name != want {
			t.Fatalf("child %d = %q, want %q", i, c.Name, want)
		}
	}

	// Counter agreement: the tree's kernel totals are exactly the
	// registry's deltas — the two views of kernel work never drift.
	for _, key := range []string{"kernel.mul.ops", "kernel.mul.nnz", "kernel.add.ops", "kernel.add.nnz", "kernel.mul.helper_blocks", "kernel.mul.panel_rows"} {
		if tot := root.Total(key); tot != delta[key] {
			t.Errorf("%s: span total %d != registry delta %d", key, tot, delta[key])
		}
	}
	if root.Total("kernel.mul.ops") == 0 {
		t.Fatal("expected mul work in the fixpoint")
	}
}

// TestFacadeTraceHelperBlocks checks the counters the Figure 1 run
// leaves at zero: kernel.mul.helper_blocks, the row blocks a helper
// goroutine gathered, and kernel.mul.panel_rows, the rows column panels
// gathered. The first chunk-100 query of go-hierarchy@0.02/G2 multiplies
// operands of several row blocks, so on two processors helpers gather
// some, and its ΔS·T#subClassOf rows are long, so panels gather them;
// each trace total must equal the registry's delta, and both must be
// more than zero. A helper that starts after the last block is claimed
// gathers nothing, so a run in which none did is retried, a bounded
// number of times; the panel rows do not depend on the schedule.
func TestFacadeTraceHelperBlocks(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	g, err := GenerateDataset("go-hierarchy", 0.02)
	if err != nil {
		t.Fatal(err)
	}
	w, err := ToWCNF(G2())
	if err != nil {
		t.Fatal(err)
	}
	const key, attempts = "kernel.mul.helper_blocks", 5
	n := g.NumVertices()
	rng := rand.New(rand.NewSource(1))
	for attempt := 1; ; attempt++ {
		src := NewVertexSet(n, rng.Perm(n)[:100]...)
		tr := NewTrace("cfpq")
		before := obs.Default.Snapshot()
		if _, err := EvalCFPQ(g, w, src, WithTrace(tr)); err != nil {
			t.Fatal(err)
		}
		delta := obs.Default.Snapshot().Sub(before)
		tr.Close()
		for _, key := range []string{key, obs.KeyMulPanelRows} {
			if tot := tr.Root().Total(key); tot != delta[key] {
				t.Fatalf("%s: span total %d != registry delta %d", key, tot, delta[key])
			}
		}
		if delta[obs.KeyMulPanelRows] == 0 {
			t.Fatalf("%s stayed 0 on attempt %d", obs.KeyMulPanelRows, attempt)
		}
		if delta[key] > 0 {
			t.Logf("%s = %d on attempt %d", key, delta[key], attempt)
			return
		}
		if attempt == attempts {
			t.Fatalf("%s stayed 0 in %d runs", key, attempts)
		}
	}
}
