package rpq

import (
	"testing"

	"mscfpq/internal/grammar"
)

// FuzzRegex asserts the regex pipeline (parse, NFA, grammar reduction,
// WCNF) never panics and that the NFA and the WCNF of its reduced
// grammar — the form rpq.Eval runs — agree on a short probe word.
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
	// Labels spelled like the reduction's state nonterminals.
	f.Add("Q0 Q1* | Q2", "a")
	f.Fuzz(func(t *testing.T, src, wordSrc string) {
		n, err := CompileRegex(src)
		if err != nil {
			return
		}
		w, err := grammar.ToWCNF(ToGrammar(n))
		if err != nil {
			t.Fatalf("regex %q: reduced grammar has no WCNF: %v", src, err)
		}
		var word []string
		for _, c := range wordSrc {
			switch c {
			case 'a':
				word = append(word, "a")
			case 'b':
				word = append(word, "b")
			}
			if len(word) > 6 {
				break
			}
		}
		if n.AcceptsWord(word) != w.Accepts(word) {
			t.Fatalf("regex %q word %v: NFA and reduced grammar disagree", src, word)
		}
	})
}
