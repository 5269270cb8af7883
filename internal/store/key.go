package store

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"strconv"
	"strings"

	"mscfpq/internal/exec"
	"mscfpq/internal/grammar"
	"mscfpq/internal/matrix"
)

// Key is a canonical cache key: an EvalKey names one CFPQ evaluation
// at one version, a TextKey one statement's result at any version of
// its store incarnation (the entry keeps the version it was computed
// at).
type Key string

// GrammarHash fingerprints a WCNF grammar α-renaming-invariantly.
// ToWCNF interns nonterminals by first appearance in the production
// list and emits rule lists in deterministic id order, so renaming
// nonterminals (which preserves production order) yields identical
// interned ids. The hash therefore covers the id structure — start id,
// term rules as (id, terminal NAME), binary rules as id triples, the
// nullable set — and deliberately ignores nonterminal names. Terminal
// names are included: they are the graph's edge labels, part of the
// query's meaning.
func GrammarHash(w *grammar.WCNF) string {
	h := sha256.New()
	var buf [8]byte
	wr := func(vals ...int) {
		for _, v := range vals {
			binary.LittleEndian.PutUint64(buf[:], uint64(int64(v)))
			h.Write(buf[:])
		}
	}
	wr(w.Start, w.NumNonterms(), len(w.TermRules), len(w.BinRules))
	for _, r := range w.TermRules {
		name := w.Terms[r.Term]
		wr(r.A, len(name))
		h.Write([]byte(name))
	}
	for _, r := range w.BinRules {
		wr(r.A, r.B, r.C)
	}
	for a, null := range w.Nullable {
		if null {
			wr(a)
		}
	}
	return hex.EncodeToString(h.Sum(nil)[:16])
}

// SourceKey canonicalizes a source set. Vectors are sorted and
// duplicate-free by construction (matrix.NewVectorFromIndices), so
// permuted or duplicated input id lists map to the same key. nil means
// the unrestricted all-pairs answer. The vector length participates:
// the same id set over a different vertex count is a different query.
func SourceKey(src *matrix.Vector) string {
	if src == nil {
		return "all"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%d:", src.Size())
	for i, id := range src.Indices() {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%x", id)
	}
	return b.String()
}

// EvalKey is the canonical key of one CFPQ evaluation: (store
// incarnation, graph version, grammar hash, canonicalized source set,
// algorithm). Distinct versions or incarnations can never collide —
// both are literal key fields.
func EvalKey(storeID, version uint64, w *grammar.WCNF, src *matrix.Vector, alg exec.Algorithm) Key {
	return Key(fmt.Sprintf("eval|%d|%d|%s|%s|%d", storeID, version, GrammarHash(w), SourceKey(src), int(alg)))
}

// TextKey is the key of a gdb query result: the raw statement text
// against one store incarnation. The versions of one text share the key
// — the entry records the version it was computed at, and Cache.Get
// decides which versions it serves — while incarnations and texts never
// collide: the store id is a literal field that holds no '|'. Textual,
// so two spellings of one query cache separately, which costs a
// duplicate entry but can never serve a wrong answer.
// Every statement looks its text up before it is parsed, so the key is
// one concatenation: the converted id is a temporary, not an allocation.
func TextKey(storeID uint64, query string) Key {
	var id [20]byte
	return Key("res|" + string(strconv.AppendUint(id[:0], storeID, 10)) + "|" + query)
}
