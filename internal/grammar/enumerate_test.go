package grammar

import (
	"sort"
	"strings"
)

// The language oracle of TestWCNFPreservesLanguage: every word of a
// small grammar up to a length, and the alphabet to spell words with.

// enumerate returns every word of L(G) with length at most maxLen, as
// space-joined strings (the empty word is ""). It performs a BFS over
// sentential forms, pruning forms whose terminal content already exceeds
// maxLen. Exponential; only for small test grammars.
func enumerate(g *Grammar, maxLen int) map[string]bool {
	byLHS := map[string][]Production{}
	for _, p := range g.Prods {
		byLHS[p.LHS] = append(byLHS[p.LHS], p)
	}
	key := func(form []Symbol) string {
		parts := make([]string, len(form))
		for i, s := range form {
			if s.Term {
				parts[i] = s.Name
			} else {
				parts[i] = "<" + s.Name + ">"
			}
		}
		return strings.Join(parts, " ")
	}
	terminalCount := func(form []Symbol) int {
		n := 0
		for _, s := range form {
			if s.Term {
				n++
			}
		}
		return n
	}

	out := map[string]bool{}
	seen := map[string]bool{}
	queue := [][]Symbol{{N(g.Start)}}
	seen[key(queue[0])] = true
	for len(queue) > 0 {
		form := queue[0]
		queue = queue[1:]
		idx := -1
		for i, s := range form {
			if !s.Term {
				idx = i
				break
			}
		}
		if idx < 0 {
			parts := make([]string, len(form))
			for i, s := range form {
				parts[i] = s.Name
			}
			out[strings.Join(parts, " ")] = true
			continue
		}
		for _, p := range byLHS[form[idx].Name] {
			next := make([]Symbol, 0, len(form)-1+len(p.RHS))
			next = append(next, form[:idx]...)
			next = append(next, p.RHS...)
			next = append(next, form[idx+1:]...)
			// Forms can carry nullable nonterminals beyond the terminal
			// budget (e.g. Dyck interleaves one S per bracket), so the
			// length prune leaves generous slack.
			if terminalCount(next) > maxLen || len(next) > 2*maxLen+8 {
				continue
			}
			k := key(next)
			if !seen[k] {
				seen[k] = true
				queue = append(queue, next)
			}
		}
	}
	return out
}

// terminals returns the sorted set of g's terminal names.
func terminals(g *Grammar) []string {
	nts := map[string]bool{}
	for _, p := range g.Prods {
		nts[p.LHS] = true
	}
	set := map[string]bool{}
	for _, p := range g.Prods {
		for _, s := range p.RHS {
			if s.Term && !nts[s.Name] {
				set[s.Name] = true
			}
		}
	}
	out := make([]string, 0, len(set))
	for t := range set {
		out = append(out, t)
	}
	sort.Strings(out)
	return out
}
