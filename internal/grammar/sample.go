package grammar

import "math/rand"

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
