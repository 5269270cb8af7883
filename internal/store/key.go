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
// at, and Cache.Lookup decides which versions it serves). A comparable
// struct, so a text key holds the statement's string itself and
// building one copies nothing. The kind is a field of its own, so a
// text key never equals an eval key, whatever the text holds.
type Key struct {
	eval    bool // an EvalKey; a TextKey otherwise
	storeID uint64
	s       string // the statement text, or the evaluation's other fields
}

// String renders the key as "res|<store id>|<text>" or
// "eval|<store id>|<version>|...", for diagnostics.
func (k Key) String() string {
	kind := "res"
	if k.eval {
		kind = "eval"
	}
	return kind + "|" + strconv.FormatUint(k.storeID, 10) + "|" + k.s
}

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
	return Key{eval: true, storeID: storeID, s: fmt.Sprintf("%d|%s|%s|%d", version, GrammarHash(w), SourceKey(src), int(alg))}
}

// TextKey is the key of a gdb query result: the raw statement text
// against one store incarnation. The versions of one text share the
// key, while incarnations and texts never collide: both are fields.
// Textual, so two spellings of one query cache separately, which costs
// a duplicate entry but can never serve a wrong answer. Every statement
// looks its text up before it is parsed, so the key allocates nothing.
func TextKey(storeID uint64, query string) Key {
	return Key{storeID: storeID, s: query}
}
