package rpq

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"mscfpq/internal/cfpq"
	"mscfpq/internal/exec"
	"mscfpq/internal/grammar"
	"mscfpq/internal/graph"
	"mscfpq/internal/matrix"
	"mscfpq/internal/obs"
)

func TestParseRegex(t *testing.T) {
	cases := map[string]string{
		"a":        "a",
		"a b":      "a b",
		"a | b":    "(a | b)",
		"a*":       "(a)*",
		"a+ b?":    "(a)+ (b)?",
		"(a b)* c": "(a b)* c",
		"a | b c":  "(a | b c)",
		"type_r a": "type_r a",
		"((a))":    "a",
	}
	for src, want := range cases {
		node, err := ParseRegex(src)
		if err != nil {
			t.Errorf("ParseRegex(%q): %v", src, err)
			continue
		}
		if got := node.String(); got != want {
			t.Errorf("ParseRegex(%q) = %q, want %q", src, got, want)
		}
	}
}

func TestParseRegexErrors(t *testing.T) {
	for _, src := range []string{"", "(", "a)", "|a", "a |", "*", "a $ b", "( )"} {
		if _, err := ParseRegex(src); err == nil {
			t.Errorf("ParseRegex(%q): expected error", src)
		}
	}
}

// TestWordMatcher checks the test's word matcher, the reference the
// compiled grammar is held to, on hand-picked words, and the compiled
// grammar on the same words. A label matches its edge step or its node
// check.
func TestWordMatcher(t *testing.T) {
	const src = "a (b | c)* d?"
	re, err := ParseRegex(src)
	if err != nil {
		t.Fatal(err)
	}
	w, err := Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	a, b, c, d := grammar.EdgeStep("a"), grammar.EdgeStep("b"), grammar.EdgeStep("c"), grammar.EdgeStep("d")
	accept := [][]string{
		{a}, {a, d}, {a, b, c, b}, {a, b, d}, {grammar.NodeCheck("a")}, {a, grammar.NodeCheck("c"), d},
	}
	reject := [][]string{
		{}, {d}, {a, d, d}, {b}, {a, a}, {"a"}, {grammar.NodeCheck("d")},
	}
	for _, word := range accept {
		if !matches(re, word) || !w.Accepts(word) {
			t.Errorf("%v: matcher %v, compiled grammar %v, want both true", word, matches(re, word), w.Accepts(word))
		}
	}
	for _, word := range reject {
		if matches(re, word) || w.Accepts(word) {
			t.Errorf("%v: matcher %v, compiled grammar %v, want both false", word, matches(re, word), w.Accepts(word))
		}
	}
}

func chainGraph(labels ...string) *graph.Graph {
	g := graph.New(len(labels) + 1)
	for i, l := range labels {
		g.AddEdge(i, l, i+1)
	}
	return g
}

func TestEvalPairsChain(t *testing.T) {
	g := chainGraph("a", "b", "b", "c")
	src := matrix.NewVectorFromIndices(5, []int{0})
	got, err := Eval(g, "a b* c?", src)
	if err != nil {
		t.Fatal(err)
	}
	// From 0: a -> 1; a b -> 2; a b b -> 3; a b b c -> 4.
	want := matrix.NewBoolFromPairs(5, 5, [][2]int{{0, 1}, {0, 2}, {0, 3}, {0, 4}})
	if !got.Equal(want) {
		t.Fatalf("pairs = %v, want %v", got.Pairs(), want.Pairs())
	}
}

func TestEvalPairsInverseLabels(t *testing.T) {
	g := chainGraph("a", "a")
	src := matrix.NewVectorFromIndices(3, []int{1, 2})
	got, err := Eval(g, "a_r", src)
	if err != nil {
		t.Fatal(err)
	}
	want := matrix.NewBoolFromPairs(3, 3, [][2]int{{1, 0}, {2, 1}})
	if !got.Equal(want) {
		t.Fatalf("pairs = %v", got.Pairs())
	}
}

func TestEvalErrors(t *testing.T) {
	if _, err := Eval(nil, "a", nil); err == nil {
		t.Fatal("expected nil graph error")
	}
	g := chainGraph("a")
	if _, err := Eval(g, "a", matrix.NewVector(99)); err == nil {
		t.Fatal("expected size mismatch error")
	}
}

// TestEvalLabelsNamedLikeStates pins that the compiled grammar's
// nonterminals cannot collide with a label: a query over labels spelled
// like its start symbol Q must answer, not fail building the grammar.
func TestEvalLabelsNamedLikeStates(t *testing.T) {
	g := chainGraph("Q", "Q0")
	got, err := Eval(g, "Q Q0", matrix.NewVectorFromIndices(3, []int{0}))
	if err != nil {
		t.Fatal(err)
	}
	if want := matrix.NewBoolFromPairs(3, 3, [][2]int{{0, 2}}); !got.Equal(want) {
		t.Fatalf("pairs = %v, want %v", got.Pairs(), want.Pairs())
	}
}

func engineGraph() *graph.Graph {
	g := graph.New(8)
	for i := 0; i < 7; i++ {
		g.AddEdge(i, "a", i+1)
	}
	g.AddEdge(7, "b", 0)
	g.AddEdge(3, "b", 5)
	return g
}

// TestEvalEnginesAgree checks the one RPQ path (the multiple-source
// driver) against the two reference CFPQ engines, Algorithm 1 and the
// worklist baseline, run on the same compiled grammar.
func TestEvalEnginesAgree(t *testing.T) {
	g := engineGraph()
	src := matrix.NewVectorFromIndices(g.NumVertices(), []int{0, 3})
	for _, query := range []string{"a+", "a* b", "a a b?"} {
		got, err := Eval(g, query, src)
		if err != nil {
			t.Fatalf("%q: %v", query, err)
		}
		w, err := Compile(query)
		if err != nil {
			t.Fatal(err)
		}
		for _, alg := range []exec.Algorithm{exec.AlgMatrix, exec.AlgWorklist} {
			ref, err := cfpq.Eval(g, w, src, exec.WithAlgorithm(alg))
			if err != nil {
				t.Fatalf("%q %v: %v", query, alg, err)
			}
			if want := matrix.NewBoolFromPairs(g.NumVertices(), g.NumVertices(), ref.Pairs()); !got.Equal(want) {
				t.Fatalf("%q: Eval = %v, %v = %v", query, got.Pairs(), alg, want.Pairs())
			}
		}
	}
}

func TestEvalValidatesInputs(t *testing.T) {
	g := engineGraph()
	src := matrix.NewVectorFromIndices(g.NumVertices(), []int{0})
	if _, err := Eval(nil, "a", src); err == nil {
		t.Fatal("nil graph accepted")
	}
	if _, err := Eval(g, "a", nil); err == nil {
		t.Fatal("nil sources accepted")
	}
	if _, err := Eval(g, "a (", src); err == nil {
		t.Fatal("bad regex accepted")
	}
}

func TestEvalCancelledContext(t *testing.T) {
	g := engineGraph()
	src := matrix.NewVectorFromIndices(g.NumVertices(), []int{0})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Eval(g, "a+ b", src, exec.WithContext(ctx)); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestEvalRecordsOutcome pins that every RPQ query is a governor query
// boundary: the governor outcome counters move by exactly one per call.
func TestEvalRecordsOutcome(t *testing.T) {
	g := engineGraph()
	src := matrix.NewVectorFromIndices(g.NumVertices(), []int{0, 3})
	completed, budget := obs.GovCompleted.Value(), obs.GovBudget.Value()
	if _, err := Eval(g, "a+ b", src); err != nil {
		t.Fatal(err)
	}
	if d := obs.GovCompleted.Value() - completed; d != 1 {
		t.Fatalf("governor.completed moved by %d, want 1", d)
	}
	if _, err := Eval(g, "a+ b", src, exec.WithBudget(10)); !errors.Is(err, exec.ErrBudget) {
		t.Fatalf("err = %v, want ErrBudget", err)
	}
	if d := obs.GovBudget.Value() - budget; d != 1 {
		t.Fatalf("governor.budget_exceeded moved by %d, want 1", d)
	}
	if d := obs.GovCompleted.Value() - completed; d != 1 {
		t.Fatalf("governor.completed moved by %d after the aborted query, want 1", d)
	}
}

// TestCompileLanguageEquivalence compares membership in the compiled
// grammar with the word matcher over the regex AST on random words of
// edge steps and node checks: the languages must be identical.
func TestCompileLanguageEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	regexes := []string{"a", "a b", "a | b", "a*", "(a b)+", "a (b | c)* d?", "a? b?"}
	var alphabet []string
	for _, l := range []string{"a", "b", "c", "d"} {
		alphabet = append(alphabet, grammar.EdgeStep(l), grammar.NodeCheck(l))
	}
	for _, src := range regexes {
		re, err := ParseRegex(src)
		if err != nil {
			t.Fatal(err)
		}
		w, err := Compile(src)
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 120; trial++ {
			word := make([]string, rng.Intn(5))
			for i := range word {
				word[i] = alphabet[rng.Intn(len(alphabet))]
			}
			if got, want := w.Accepts(word), matches(re, word); got != want {
				t.Fatalf("regex %q word %v: grammar=%v matcher=%v", src, word, got, want)
			}
		}
	}
}

// TestCompileDeterministic pins the compiled grammar: nonterminal ids
// downstream are assigned in production order, so a compilation that
// varied across runs would vary everything keyed on its ids.
func TestCompileDeterministic(t *testing.T) {
	first, err := Compile("a b | c d* | e")
	if err != nil {
		t.Fatal(err)
	}
	want := first.String()
	for i := 0; i < 50; i++ {
		w, err := Compile("a b | c d* | e")
		if err != nil {
			t.Fatal(err)
		}
		if got := w.String(); got != want {
			t.Fatalf("Compile varies across calls:\n--- first\n%s\n--- later\n%s", want, got)
		}
	}
}
