package store

import (
	"fmt"
	"math/rand"
	"testing"

	"mscfpq/internal/exec"
	"mscfpq/internal/grammar"
	"mscfpq/internal/matrix"
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
// keys: semantically identical inputs — α-renamed grammars,
// permuted/duplicated source sets — must map to the SAME evaluation
// key, and distinct versions, store incarnations, or source sets must
// NEVER collide; a result key is shared by the versions of one text and
// never collides across incarnations or texts.
func FuzzCacheKey(f *testing.F) {
	f.Add("S -> a S b | a b", uint64(3), uint64(2), int64(42))
	f.Add("S -> S S | a |", uint64(0), uint64(1), int64(7))
	f.Add("A -> b A | B\nB -> c", uint64(9), uint64(90), int64(1))
	f.Add("S -> a b c d S | a", uint64(1), uint64(5), int64(99))
	f.Fuzz(func(t *testing.T, gtext string, version, deltaV uint64, seed int64) {
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

		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(64) + 2
		ids := make([]int, rng.Intn(8))
		for i := range ids {
			ids[i] = rng.Intn(n)
		}
		src := matrix.NewVectorFromIndices(n, ids)
		// Permute and duplicate the id list; the canonical vector — and
		// hence the key — must not change.
		scrambled := append([]int(nil), ids...)
		rng.Shuffle(len(scrambled), func(i, j int) { scrambled[i], scrambled[j] = scrambled[j], scrambled[i] })
		scrambled = append(scrambled, ids...)
		srcPerm := matrix.NewVectorFromIndices(n, scrambled)

		const sid = 11
		alg := exec.AlgMultiSource
		k := EvalKey(sid, version, w, src, alg)
		if kp := EvalKey(sid, version, w2, srcPerm, alg); kp != k {
			t.Fatalf("equivalent query produced a different key\n%s\n%s", k, kp)
		}

		// Distinct versions never collide.
		v2 := version + deltaV + 1 // deltaV may be 0; +1 forces distinctness
		if k2 := EvalKey(sid, v2, w, src, alg); k2 == k {
			t.Fatalf("versions %d and %d collide on key %s", version, v2, k)
		}
		// Distinct store incarnations never collide.
		if k2 := EvalKey(sid+1, version, w, src, alg); k2 == k {
			t.Fatalf("store ids collide on key %s", k)
		}
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
		// A strictly different source set is a different key.
		extra := -1
		for v := 0; v < n; v++ {
			if !src.Get(v) {
				extra = v
				break
			}
		}
		if extra >= 0 {
			grownSrc := matrix.NewVectorFromIndices(n, append(append([]int(nil), ids...), extra))
			if k2 := EvalKey(sid, version, w, grownSrc, alg); k2 == k {
				t.Fatalf("distinct source sets collide on key %s", k)
			}
		}
		// A different algorithm is a different key.
		if k2 := EvalKey(sid, version, w, src, exec.AlgMatrix); k2 == k {
			t.Fatalf("algorithms collide on key %s", k)
		}
	})
}
