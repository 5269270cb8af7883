package rpq

import (
	"strings"
	"testing"

	"mscfpq/internal/grammar"
)

// FuzzRegex asserts the regex pipeline (parse, translation, compilation,
// WCNF) never panics and that the compiled grammar — the form rpq.Eval
// runs — and the word matcher over the regex AST agree on a short probe
// word. In the probe, a and b are edge steps, A and B node checks.
func FuzzRegex(f *testing.F) {
	seeds := []string{
		"a", "a b", "a | b", "a*", "(a b)+ c?", "a_r* b",
		"((a))", "a**", "(", "|", "a |",
		// Regular fragments over the labels of the checked-in query
		// grammars (queries/*.txt): the vocabulary of the paper's
		// datasets must stay in the corpus.
		"subClassOf_r* subClassOf",
		"type_r (subClassOf | type)* type",
		"broaderTransitive+ broaderTransitive_r+",
		"(subClassOf_r subClassOf)?",
	}
	for _, s := range seeds {
		f.Add(s, "a b")
	}
	f.Add("subClassOf_r* subClassOf", "subClassOf")
	// Labels spelled like the compiled grammar's start symbol.
	f.Add("Q0 Q1* | Q2", "a")
	// Zero-length steps on vertex labels, alone and between edges.
	f.Add("a (b | a)* b?", "aBab")
	f.Add("(a? b)+", "AB")
	// Each quantifier folds its operand once, so nested ones must not
	// multiply the grammar.
	f.Add("(a b?)"+strings.Repeat("+", 24), "ab")
	f.Fuzz(func(t *testing.T, src, wordSrc string) {
		re, err := ParseRegex(src)
		if err != nil {
			return
		}
		w, err := Compile(src)
		if err != nil {
			t.Fatalf("regex %q: no compiled grammar: %v", src, err)
		}
		var word []string
		for _, c := range wordSrc {
			if len(word) > 6 {
				break
			}
			switch c {
			case 'a', 'b':
				word = append(word, grammar.EdgeStep(string(c)))
			case 'A', 'B':
				word = append(word, grammar.NodeCheck(string(c+'a'-'A')))
			}
		}
		if matches(re, word) != w.Accepts(word) {
			t.Fatalf("regex %q word %v: word matcher and compiled grammar disagree", src, word)
		}
	})
}

// matches reports whether the regex matches a word of terminals, the
// way a path spells it: a label l matches the edge step :l or the node
// check (:l). It reads the AST directly, apart from the compiler, as the
// reference the compiled grammar is checked against.
func matches(re Node, word []string) bool { return ends(re, word, 0)[len(word)] }

// ends reports, for each position j of word, whether re matches
// word[i:j].
func ends(re Node, word []string, i int) []bool {
	out := make([]bool, len(word)+1)
	switch v := re.(type) {
	case Label:
		if i < len(word) && (word[i] == grammar.EdgeStep(v.Name) || word[i] == grammar.NodeCheck(v.Name)) {
			out[i+1] = true
		}
	case Concat:
		for j, ok := range ends(v.Left, word, i) {
			if ok {
				or(out, ends(v.Right, word, j))
			}
		}
	case Alt:
		or(out, ends(v.Left, word, i))
		or(out, ends(v.Right, word, i))
	case Opt:
		out[i] = true
		or(out, ends(v.Sub, word, i))
	case Star:
		out[i] = true
		repeat(v.Sub, word, out)
	case Plus:
		or(out, ends(v.Sub, word, i))
		repeat(v.Sub, word, out)
	}
	return out
}

// repeat extends out, the positions some matches reach, by further
// matches of sub. A match never ends before it starts, so one pass in
// position order reaches every repetition.
func repeat(sub Node, word []string, out []bool) {
	for j := range out {
		if out[j] {
			or(out, ends(sub, word, j))
		}
	}
}

func or(dst, src []bool) {
	for j, ok := range src {
		dst[j] = dst[j] || ok
	}
}
