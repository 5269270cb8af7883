package store

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"strconv"

	"mscfpq/internal/grammar"
)

// Key is a cache key (TextKey): one statement's result at any version
// of its store incarnation (the entry keeps the version it was computed
// at, and Cache.Lookup decides which versions it serves). A comparable
// struct, so it holds the statement's string itself and building one
// copies nothing.
type Key struct {
	storeID uint64
	text    string
}

// String renders the key as "res|<store id>|<text>", for diagnostics.
func (k Key) String() string {
	return "res|" + strconv.FormatUint(k.storeID, 10) + "|" + k.text
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

// TextKey is the key of a gdb query result: the raw statement text
// against one store incarnation. The versions of one text share the
// key, while incarnations and texts never collide: both are fields.
// Textual, so two spellings of one query cache separately, which costs
// a duplicate entry but can never serve a wrong answer. Every statement
// looks its text up before it is parsed, so the key allocates nothing.
func TextKey(storeID uint64, query string) Key {
	return Key{storeID: storeID, text: query}
}
