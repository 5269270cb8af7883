package grammar

import (
	"math/rand"
	"strings"
)

// Sample returns a random word of L(G) obtained by expanding a random
// derivation, or ok=false if the derivation did not terminate within the
// step budget. It exists for property tests: every sampled word must be
// accepted by the WCNF form of g.
func Sample(g *Grammar, rng *rand.Rand, maxSteps int) (word []string, ok bool) {
	byLHS := map[string][]Production{}
	for _, p := range g.Prods {
		byLHS[p.LHS] = append(byLHS[p.LHS], p)
	}
	sentential := []Symbol{N(g.Start)}
	for steps := 0; steps < maxSteps; steps++ {
		idx := -1
		for i, s := range sentential {
			if !s.Term {
				idx = i
				break
			}
		}
		if idx < 0 {
			out := make([]string, len(sentential))
			for i, s := range sentential {
				out[i] = s.Name
			}
			return out, true
		}
		alts := byLHS[sentential[idx].Name]
		p := alts[rng.Intn(len(alts))]
		next := make([]Symbol, 0, len(sentential)-1+len(p.RHS))
		next = append(next, sentential[:idx]...)
		next = append(next, p.RHS...)
		next = append(next, sentential[idx+1:]...)
		sentential = next
		if len(sentential) > maxSteps { // runaway expansion
			return nil, false
		}
	}
	return nil, false
}

// Enumerate returns every word of L(G) with length at most maxLen, as
// space-joined strings (the empty word is ""). It performs a BFS over
// sentential forms, pruning forms whose terminal content already exceeds
// maxLen. Exponential; only for small test grammars.
func Enumerate(g *Grammar, maxLen int) map[string]bool {
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
