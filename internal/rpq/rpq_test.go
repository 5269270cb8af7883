package rpq

import (
	"context"
	"errors"
	"math/rand"
	"strings"
	"testing"

	"mscfpq/internal/cfpq"
	"mscfpq/internal/cypher"
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
// TestParseRegexDepthBound checks that a regex may nest
// cypher.MaxPathDepth levels and no more, each parenthesis and each
// quantifier counting one, and that FuzzRegex's seed of 24 nested
// quantifiers parses.
func TestParseRegexDepthBound(t *testing.T) {
	max := cypher.MaxPathDepth
	parens := func(n int, inner string) string {
		return strings.Repeat("(", n) + inner + strings.Repeat(")", n)
	}
	for _, c := range []struct {
		src string
		ok  bool
	}{
		{"(a b?)" + strings.Repeat("+", 24), true},
		{parens(max, "a"), true},
		{parens(max+1, "a"), false},
		{"a" + strings.Repeat("*", max), true},
		{"a" + strings.Repeat("*", max+1), false},
		{parens(max/2, "a") + strings.Repeat("+", max-max/2), true},
		{parens(max/2, "a") + strings.Repeat("+", max-max/2+1), false},
		{"b | " + parens(max+1, "a"), false},
	} {
		_, err := ParseRegex(c.src)
		if c.ok && err != nil {
			t.Errorf("%.40s...: %v", c.src, err)
		}
		if !c.ok && (err == nil || !strings.Contains(err.Error(), "nested deeper")) {
			t.Errorf("%.40s...: err = %v, want the depth error", c.src, err)
		}
	}
}

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

// TestEvalUTF8Label: a label may hold any Unicode letter, as a graph
// file may; an error names the character the regex holds.
func TestEvalUTF8Label(t *testing.T) {
	g := chainGraph("é", "é", "b")
	got, err := Eval(g, "é+", matrix.NewVectorFromIndices(4, []int{0}))
	if err != nil {
		t.Fatal(err)
	}
	want := matrix.NewBoolFromPairs(4, 4, [][2]int{{0, 1}, {0, 2}})
	if !got.Equal(want) {
		t.Fatalf("pairs = %v, want %v", got.Pairs(), want.Pairs())
	}
	for src, want := range map[string]string{
		"a §":     `invalid character '§'`,
		"a \xe9+": `invalid UTF-8 at offset 2`,
	} {
		if _, err := ParseRegex(src); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("ParseRegex(%q) = %v, want an error with %q", src, err, want)
		}
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
// driver) against the reference CFPQ engine, Algorithm 1, run on the
// same compiled grammar.
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
		r, err := cfpq.AllPairs(g, w)
		if err != nil {
			t.Fatalf("%q AllPairs: %v", query, err)
		}
		if want := matrix.ExtractRows(r.Start(), src); !got.Equal(want) {
			t.Fatalf("%q: Eval = %v, AllPairs = %v", query, got.Pairs(), want.Pairs())
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
