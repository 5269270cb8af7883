package grammar

import (
	"fmt"
	"sort"
)

// TermRule is a WCNF production A -> a with interned ids.
type TermRule struct {
	A    int // nonterminal id
	Term int // terminal id
}

// BinRule is a WCNF production A -> B C with interned ids.
type BinRule struct {
	A, B, C int
}

// WCNF is a grammar in weak Chomsky normal form (paper Definition 2.13):
// every production is A -> B C, A -> a, or A -> eps, with the start
// symbol allowed on right-hand sides. Nonterminals and terminals are
// interned to dense ids so algorithms can index matrices by them.
type WCNF struct {
	Start    int      // start nonterminal id
	Nonterms []string // id -> name
	Terms    []string // id -> name

	TermRules []TermRule
	BinRules  []BinRule
	Nullable  []bool // per nonterminal: has an explicit A -> eps rule

	ntID   map[string]int
	termID map[string]int
	// byTerm[t] lists nonterminals A with A -> t, for O(1) matrix init.
	byTerm map[int][]int
}

// NontermID returns the id of a nonterminal name, or -1.
func (w *WCNF) NontermID(name string) int {
	if id, ok := w.ntID[name]; ok {
		return id
	}
	return -1
}

// TermID returns the id of a terminal name, or -1.
func (w *WCNF) TermID(name string) int {
	if id, ok := w.termID[name]; ok {
		return id
	}
	return -1
}

// NontermsForTerm returns the nonterminals A with a rule A -> term.
func (w *WCNF) NontermsForTerm(term int) []int { return w.byTerm[term] }

// NumNonterms returns the number of nonterminals.
func (w *WCNF) NumNonterms() int { return len(w.Nonterms) }

// NumTerms returns the number of terminals.
func (w *WCNF) NumTerms() int { return len(w.Terms) }

// String renders the normalized grammar in Parse-compatible text.
func (w *WCNF) String() string {
	g := &Grammar{Start: w.Nonterms[w.Start]}
	for a, null := range w.Nullable {
		if null {
			g.Prods = append(g.Prods, Production{LHS: w.Nonterms[a]})
		}
	}
	for _, r := range w.TermRules {
		g.Prods = append(g.Prods, Production{LHS: w.Nonterms[r.A], RHS: []Symbol{T(w.Terms[r.Term])}})
	}
	for _, r := range w.BinRules {
		g.Prods = append(g.Prods, Production{
			LHS: w.Nonterms[r.A],
			RHS: []Symbol{N(w.Nonterms[r.B]), N(w.Nonterms[r.C])},
		})
	}
	return g.String()
}

// ToWCNF normalizes g into weak Chomsky normal form. The transformation
// (standard, see Definition 2.13 and the remark below it in the paper):
//
//  1. terminals inside right-hand sides of length >= 2 are lifted to
//     fresh nonterminals T#a -> a;
//  2. long rules are binarized with fresh nonterminals;
//  3. unit rules A -> B are eliminated by copying B's unit-closure
//     productions onto A;
//  4. explicit eps rules are kept (weak form) and the base nullable set
//     is recorded; derived nullability emerges in the algorithms'
//     fixpoint, exactly as in Algorithm 1 lines 5-6.
//
// The language is preserved; property tests verify membership agreement
// with the original grammar on sampled words.
func ToWCNF(g *Grammar) (*WCNF, error) { return Extend(nil, g) }

// Extend normalizes the productions of g on top of base, a grammar
// already in WCNF (nil for none), by the same steps as ToWCNF. g's
// productions head only nonterminals base does not have, and their
// right-hand sides may use base's nonterminals. base's nonterminal and
// terminal ids and its rules are a prefix of the result, so relations
// indexed by base's ids stay valid in it; the start symbol is g's.
func Extend(base *WCNF, g *Grammar) (*WCNF, error) {
	if base == nil {
		base = &WCNF{}
	}
	if err := g.validate(base); err != nil {
		return nil, err
	}
	w := &WCNF{
		Nonterms:  append([]string(nil), base.Nonterms...),
		Terms:     append([]string(nil), base.Terms...),
		TermRules: append([]TermRule(nil), base.TermRules...),
		BinRules:  append([]BinRule(nil), base.BinRules...),
		ntID:      map[string]int{},
		termID:    map[string]int{},
		byTerm:    map[int][]int{},
	}
	for name, id := range base.ntID {
		w.ntID[name] = id
	}
	for name, id := range base.termID {
		w.termID[name] = id
	}
	for t, as := range base.byTerm {
		w.byTerm[t] = append([]int(nil), as...)
	}
	nBase := len(w.Nonterms)

	nt := func(name string) int {
		if id, ok := w.ntID[name]; ok {
			return id
		}
		id := len(w.Nonterms)
		w.ntID[name] = id
		w.Nonterms = append(w.Nonterms, name)
		return id
	}
	term := func(name string) int {
		if id, ok := w.termID[name]; ok {
			return id
		}
		id := len(w.Terms)
		w.termID[name] = id
		w.Terms = append(w.Terms, name)
		return id
	}
	// Intern declared nonterminals first so ids are stable and readable.
	for _, p := range g.Prods {
		nt(p.LHS)
	}
	w.Start = nt(g.Start)

	fresh := 0
	freshNT := func(prefix string) int {
		for {
			name := fmt.Sprintf("%s#%d", prefix, fresh)
			fresh++
			if _, taken := w.ntID[name]; !taken {
				return nt(name)
			}
		}
	}

	// Working productions over interned symbols. kind: term/bin/eps/unit.
	type sym struct {
		id   int
		term bool
	}
	type work struct {
		lhs int
		rhs []sym
	}
	var rules []work
	for _, p := range g.Prods {
		rw := work{lhs: w.ntID[p.LHS]}
		for _, s := range p.RHS {
			if s.Term {
				rw.rhs = append(rw.rhs, sym{id: term(s.Name), term: true})
			} else {
				rw.rhs = append(rw.rhs, sym{id: w.ntID[s.Name], term: false})
			}
		}
		rules = append(rules, rw)
	}

	// Step 1: lift terminals out of long right-hand sides.
	termNT := map[int]int{} // terminal id -> lifting nonterminal id
	liftTerm := func(t int) int {
		if id, ok := termNT[t]; ok {
			return id
		}
		id := nt(uniqueName(w.ntID, "T#"+w.Terms[t]))
		termNT[t] = id
		return id
	}
	for i := range rules {
		if len(rules[i].rhs) < 2 {
			continue
		}
		for j, s := range rules[i].rhs {
			if s.term {
				rules[i].rhs[j] = sym{id: liftTerm(s.id)}
			}
		}
	}

	// Step 2: binarize long rules.
	var short []work
	for _, r := range rules {
		for len(r.rhs) > 2 {
			mid := freshNT(w.Nonterms[r.lhs])
			short = append(short, work{lhs: r.lhs, rhs: []sym{r.rhs[0], {id: mid}}})
			r = work{lhs: mid, rhs: r.rhs[1:]}
		}
		short = append(short, r)
	}

	// Collect direct rule sets per nonterminal.
	n := len(w.Nonterms)
	termSet := make([]map[int]bool, n) // A -> a
	binSet := make([]map[[2]int]bool, n)
	epsSet := make([]bool, n)
	unitSet := make([]map[int]bool, n) // A -> B
	for i := 0; i < n; i++ {
		termSet[i] = map[int]bool{}
		binSet[i] = map[[2]int]bool{}
		unitSet[i] = map[int]bool{}
	}
	for t, a := range termNT {
		termSet[a][t] = true
	}
	// base's rules are already unit-closed: a new unit rule onto one of
	// its nonterminals copies them as they are.
	for _, r := range w.TermRules {
		termSet[r.A][r.Term] = true
	}
	for _, r := range w.BinRules {
		binSet[r.A][[2]int{r.B, r.C}] = true
	}
	for a := 0; a < nBase; a++ {
		epsSet[a] = base.Nullable[a]
	}
	for _, r := range short {
		switch len(r.rhs) {
		case 0:
			epsSet[r.lhs] = true
		case 1:
			s := r.rhs[0]
			if s.term {
				termSet[r.lhs][s.id] = true
			} else {
				unitSet[r.lhs][s.id] = true
			}
		case 2:
			binSet[r.lhs][[2]int{r.rhs[0].id, r.rhs[1].id}] = true
		default:
			return nil, fmt.Errorf("grammar: internal: rule of length %d after binarization", len(r.rhs))
		}
	}

	// Step 3: eliminate unit rules via unit closure.
	closure := make([]map[int]bool, n)
	for a := nBase; a < n; a++ {
		closure[a] = map[int]bool{a: true}
		stack := []int{a}
		for len(stack) > 0 {
			b := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for c := range unitSet[b] {
				if !closure[a][c] {
					closure[a][c] = true
					//lint:ignore detrange stack is a DFS worklist; the closure it computes is a set, and rule lists are sorted at emission below
					stack = append(stack, c)
				}
			}
		}
	}
	for a := nBase; a < n; a++ {
		for b := range closure[a] {
			if b == a {
				continue
			}
			for t := range termSet[b] {
				termSet[a][t] = true
			}
			for bc := range binSet[b] {
				binSet[a][bc] = true
			}
			if epsSet[b] {
				epsSet[a] = true
			}
		}
	}

	// Emit deterministically ordered rule lists after base's.
	w.Nullable = epsSet
	for a := nBase; a < n; a++ {
		terms := make([]int, 0, len(termSet[a]))
		for t := range termSet[a] {
			terms = append(terms, t)
		}
		sort.Ints(terms)
		for _, t := range terms {
			w.TermRules = append(w.TermRules, TermRule{A: a, Term: t})
			w.byTerm[t] = append(w.byTerm[t], a)
		}
		bins := make([][2]int, 0, len(binSet[a]))
		for bc := range binSet[a] {
			bins = append(bins, bc)
		}
		sort.Slice(bins, func(i, j int) bool {
			if bins[i][0] != bins[j][0] {
				return bins[i][0] < bins[j][0]
			}
			return bins[i][1] < bins[j][1]
		})
		for _, bc := range bins {
			w.BinRules = append(w.BinRules, BinRule{A: a, B: bc[0], C: bc[1]})
		}
	}
	return w, nil
}

// MustWCNF is ToWCNF, panicking on error; for known-good query grammars.
func MustWCNF(g *Grammar) *WCNF {
	w, err := ToWCNF(g)
	if err != nil {
		panic(err)
	}
	return w
}

func uniqueName(taken map[string]int, base string) string {
	if _, ok := taken[base]; !ok {
		return base
	}
	for i := 1; ; i++ {
		name := fmt.Sprintf("%s#%d", base, i)
		if _, ok := taken[name]; !ok {
			return name
		}
	}
}
