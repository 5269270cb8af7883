package store

import (
	"fmt"
	"testing"

	"mscfpq/internal/grammar"
)

// alphaRename renames every nonterminal of g injectively (ρ0, ρ1, ...
// by first appearance), preserving production order and terminals — a
// semantically identical grammar that must hash identically.
func alphaRename(g *grammar.Grammar) *grammar.Grammar {
	ren := map[string]string{}
	name := func(nt string) string {
		if r, ok := ren[nt]; ok {
			return r
		}
		r := fmt.Sprintf("ρ%d", len(ren))
		ren[nt] = r
		return r
	}
	out := &grammar.Grammar{}
	for _, p := range g.Prods {
		np := grammar.Production{LHS: name(p.LHS)}
		for _, s := range p.RHS {
			if s.Term {
				np.RHS = append(np.RHS, s)
			} else {
				np.RHS = append(np.RHS, grammar.N(name(s.Name)))
			}
		}
		out.Prods = append(out.Prods, np)
	}
	out.Start = name(g.Start)
	return out
}

// FuzzCacheKey checks the canonicalization properties of the cache
// keys: an α-renamed grammar must hash identically, and a result key is
// shared by the versions of one text and never collides across store
// incarnations or texts.
func FuzzCacheKey(f *testing.F) {
	f.Add("S -> a S b | a b", uint64(3))
	f.Add("S -> S S | a |", uint64(0))
	f.Add("A -> b A | B\nB -> c", uint64(9))
	f.Add("S -> a b c d S | a", uint64(11))
	f.Fuzz(func(t *testing.T, gtext string, sid uint64) {
		// A result key names a text of one incarnation at every version:
		// the entry keeps its version, so versions share the key, while
		// incarnations and texts never collide — not even a text that
		// starts with the digits of another store id.
		rk := TextKey(sid, gtext)
		if rk != TextKey(sid, gtext) {
			t.Fatalf("one text keyed twice differently")
		}
		if rk2 := TextKey(sid+1, gtext); rk2 == rk {
			t.Fatalf("store ids collide on result key %s", rk)
		}
		if rk2 := TextKey(1, fmt.Sprint(sid)[1:]+"|"+gtext); rk2 == rk {
			t.Fatalf("store id and text boundary collide on result key %s", rk)
		}
		if rk2 := TextKey(sid, gtext+" "); rk2 == rk {
			t.Fatalf("distinct texts collide on result key %s", rk)
		}

		g, err := grammar.ParseString(gtext)
		if err != nil {
			t.Skip()
		}
		w, err := grammar.ToWCNF(g)
		if err != nil {
			t.Skip()
		}
		w2, err := grammar.ToWCNF(alphaRename(g))
		if err != nil {
			t.Fatalf("α-renamed grammar stopped normalizing: %v", err)
		}
		if GrammarHash(w) != GrammarHash(w2) {
			t.Fatalf("α-renaming changed the grammar hash\noriginal: %s\nrenamed:  %s", w, w2)
		}
	})
}
