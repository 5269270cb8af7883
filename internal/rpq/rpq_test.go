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

func TestNFAAcceptsWord(t *testing.T) {
	n, err := CompileRegex("a (b | c)* d?")
	if err != nil {
		t.Fatal(err)
	}
	accept := [][]string{
		{"a"}, {"a", "d"}, {"a", "b", "c", "b"}, {"a", "b", "d"},
	}
	reject := [][]string{
		{}, {"d"}, {"a", "d", "d"}, {"b"}, {"a", "a"},
	}
	for _, w := range accept {
		if !n.AcceptsWord(w) {
			t.Errorf("rejected %v", w)
		}
	}
	for _, w := range reject {
		if n.AcceptsWord(w) {
			t.Errorf("accepted %v", w)
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

// TestEvalLabelsNamedLikeStates pins that the reduction's nonterminals
// cannot collide with a label: a query over labels spelled like NFA
// state names must answer, not panic building the grammar.
func TestEvalLabelsNamedLikeStates(t *testing.T) {
	g := chainGraph("Q0", "Q1")
	got, err := Eval(g, "Q0 Q1", matrix.NewVectorFromIndices(3, []int{0}))
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
// worklist baseline, run on the same reduced grammar.
func TestEvalEnginesAgree(t *testing.T) {
	g := engineGraph()
	src := matrix.NewVectorFromIndices(g.NumVertices(), []int{0, 3})
	for _, query := range []string{"a+", "a* b", "a a b?"} {
		got, err := Eval(g, query, src)
		if err != nil {
			t.Fatalf("%q: %v", query, err)
		}
		n, err := CompileRegex(query)
		if err != nil {
			t.Fatal(err)
		}
		w := grammar.MustWCNF(ToGrammar(n))
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

// randomWordAccept compares NFA acceptance against grammar membership of
// the reduced CFG: the languages must be identical.
func TestToGrammarLanguageEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	regexes := []string{"a", "a b", "a | b", "a*", "(a b)+", "a (b | c)* d?", "a? b?"}
	alphabet := []string{"a", "b", "c", "d"}
	for _, src := range regexes {
		n, err := CompileRegex(src)
		if err != nil {
			t.Fatal(err)
		}
		w := grammar.MustWCNF(ToGrammar(n))
		for trial := 0; trial < 120; trial++ {
			word := make([]string, rng.Intn(5))
			for i := range word {
				word[i] = alphabet[rng.Intn(len(alphabet))]
			}
			if got, want := w.Accepts(word), n.AcceptsWord(word); got != want {
				t.Fatalf("regex %q word %v: grammar=%v nfa=%v", src, word, got, want)
			}
		}
	}
}

// TestToGrammarDeterministic pins the order of the reduction's
// productions: nonterminal ids downstream are assigned in production
// order, so iterating the NFA's transition map directly would make the
// reduced grammar (and anything keyed on its ids) vary across runs.
func TestToGrammarDeterministic(t *testing.T) {
	n, err := CompileRegex("a b | c d* | e")
	if err != nil {
		t.Fatal(err)
	}
	want := ToGrammar(n).String()
	for i := 0; i < 50; i++ {
		if got := ToGrammar(n).String(); got != want {
			t.Fatalf("ToGrammar varies across calls:\n--- first\n%s\n--- later\n%s", want, got)
		}
	}
}
