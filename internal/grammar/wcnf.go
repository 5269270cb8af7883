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

// NumNonterms returns the number of nonterminals.
func (w *WCNF) NumNonterms() int { return len(w.Nonterms) }

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
	rs := make([]*ruleSet, n)
	for i := range rs {
		rs[i] = &ruleSet{terms: map[int]bool{}, bins: map[[2]int]bool{}}
	}
	for t, a := range termNT {
		rs[a].terms[t] = true
	}
	// base's rules are already unit-closed: a new unit rule onto one of
	// its nonterminals copies them as they are.
	for _, r := range w.TermRules {
		rs[r.A].terms[r.Term] = true
	}
	for _, r := range w.BinRules {
		rs[r.A].bins[[2]int{r.B, r.C}] = true
	}
	for a := 0; a < nBase; a++ {
		rs[a].eps = base.Nullable[a]
	}
	for _, r := range short {
		switch len(r.rhs) {
		case 0:
			rs[r.lhs].eps = true
		case 1:
			s := r.rhs[0]
			if s.term {
				rs[r.lhs].terms[s.id] = true
			} else {
				rs[r.lhs].units = append(rs[r.lhs].units, s.id)
			}
		case 2:
			rs[r.lhs].bins[[2]int{r.rhs[0].id, r.rhs[1].id}] = true
		default:
			return nil, fmt.Errorf("grammar: internal: rule of length %d after binarization", len(r.rhs))
		}
	}

	// Step 3: eliminate unit rules.
	closeUnits(nBase, rs)

	// Emit deterministically ordered rule lists after base's.
	w.Nullable = make([]bool, n)
	for a, r := range rs {
		w.Nullable[a] = r.eps
	}
	for a := nBase; a < n; a++ {
		terms := make([]int, 0, len(rs[a].terms))
		for t := range rs[a].terms {
			terms = append(terms, t)
		}
		sort.Ints(terms)
		for _, t := range terms {
			w.TermRules = append(w.TermRules, TermRule{A: a, Term: t})
			w.byTerm[t] = append(w.byTerm[t], a)
		}
		bins := make([][2]int, 0, len(rs[a].bins))
		for bc := range rs[a].bins {
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

// ruleSet is one nonterminal's rules during normalization.
type ruleSet struct {
	terms map[int]bool    // A -> a
	bins  map[[2]int]bool // A -> B C
	eps   bool            // A -> eps
	units []int           // A -> B
}

// closeUnits eliminates unit rules: every nonterminal from from on gets
// the rules of each nonterminal its unit rules reach. Nonterminals that
// reach each other through unit rules, a strongly connected component
// of the unit graph, have the same closure, so they share one rule set:
// their own rules and the closed rules of the components they reach.
// Tarjan's algorithm finishes a component only after every component
// it reaches, so those are closed already. The work is the rules copied
// along the unit rules, with no closure set per nonterminal, and the
// walk keeps its own stack, so a long chain of unit rules does not
// deepen the call stack. Below from, nonterminals have no unit rules:
// their rules are closed already.
func closeUnits(from int, rs []*ruleSet) {
	n := len(rs)
	order := make([]int, n) // 1 + the visit number; 0 = not visited
	low := make([]int, n)
	root := make([]int, n) // the root of a finished component; -1 before
	var open []int         // Tarjan's stack: visited, component unfinished
	type frame struct{ a, next int }
	visited := 0
	visit := func(a int) frame {
		visited++
		order[a], low[a], root[a] = visited, visited, -1
		open = append(open, a)
		return frame{a: a}
	}
	for start := from; start < n; start++ {
		if order[start] != 0 {
			continue
		}
		walk := []frame{visit(start)}
		for len(walk) > 0 {
			f := &walk[len(walk)-1]
			if units := rs[f.a].units; f.next < len(units) {
				b := units[f.next]
				f.next++
				switch {
				case order[b] == 0:
					walk = append(walk, visit(b))
				case root[b] < 0:
					low[f.a] = min(low[f.a], order[b])
				}
				continue
			}
			a := f.a
			walk = walk[:len(walk)-1]
			if len(walk) > 0 {
				up := walk[len(walk)-1].a
				low[up] = min(low[up], low[a])
			}
			if low[a] != order[a] {
				continue
			}
			i := len(open) - 1
			for open[i] != a {
				i--
			}
			comp := open[i:]
			open = open[:i]
			for _, m := range comp {
				root[m] = a
			}
			closed := rs[a]
			for _, m := range comp {
				closed.add(rs[m])
				for _, b := range rs[m].units {
					if root[b] != a {
						closed.add(rs[b])
					}
				}
			}
			for _, m := range comp {
				rs[m] = closed
			}
		}
	}
}

// add copies o's rules into r.
func (r *ruleSet) add(o *ruleSet) {
	if r == o {
		return
	}
	for t := range o.terms {
		r.terms[t] = true
	}
	for bc := range o.bins {
		r.bins[bc] = true
	}
	r.eps = r.eps || o.eps
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
