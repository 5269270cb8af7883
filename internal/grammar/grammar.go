// Package grammar provides context-free grammars, the textual query
// format, and the normalization to weak Chomsky normal form (WCNF) that
// the matrix-based CFPQ algorithms operate on (paper Definitions
// 2.10-2.13).
//
// A grammar is written as productions over whitespace-separated symbols:
//
//	S -> subClassOf_r S subClassOf | subClassOf_r subClassOf
//	S -> eps
//
// Symbols that occur on the left of "->" are nonterminals; every other
// symbol is a terminal (an edge or vertex label of the queried graph).
// The keyword "eps" denotes the empty string. "#" starts a line comment.
// By the paper's convention a terminal "x_r" matches the inverse of the
// relation x (an edge traversed backwards).
package grammar

import (
	"fmt"
	"strings"
)

// Symbol is one entry of a production's right-hand side.
type Symbol struct {
	Name string
	Term bool // true: terminal (graph label); false: nonterminal
}

// T returns a terminal symbol.
func T(name string) Symbol { return Symbol{Name: name, Term: true} }

// N returns a nonterminal symbol.
func N(name string) Symbol { return Symbol{Name: name, Term: false} }

// Production is a context-free production LHS -> RHS. An empty RHS
// denotes LHS -> eps.
type Production struct {
	LHS string
	RHS []Symbol
}

func (p Production) String() string {
	if len(p.RHS) == 0 {
		return p.LHS + " -> eps"
	}
	parts := make([]string, len(p.RHS))
	for i, s := range p.RHS {
		parts[i] = s.Name
	}
	return p.LHS + " -> " + strings.Join(parts, " ")
}

// Grammar is a context-free grammar G = (N, Σ, P, S). Nonterminals are
// exactly the names that appear as a LHS.
type Grammar struct {
	Start string
	Prods []Production
}

// New returns a grammar with the given start nonterminal and productions
// and validates it.
func New(start string, prods []Production) (*Grammar, error) {
	g := &Grammar{Start: start, Prods: prods}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return g, nil
}

// MustNew is New, panicking on invalid input. For package-level query
// constructors and tests.
func MustNew(start string, prods []Production) *Grammar {
	g, err := New(start, prods)
	if err != nil {
		panic(err)
	}
	return g
}

// Validate checks structural well-formedness: a start symbol that is a
// nonterminal, no empty names, and symbol kinds consistent with LHS use.
func (g *Grammar) Validate() error { return g.validate(&WCNF{}) }

// validate is Validate for productions added to base (see Extend): a
// nonterminal of base has its productions there and gains no more.
func (g *Grammar) validate(base *WCNF) error {
	if g.Start == "" {
		return fmt.Errorf("grammar: empty start symbol")
	}
	if len(g.Prods) == 0 {
		return fmt.Errorf("grammar: no productions")
	}
	nts := map[string]bool{}
	for _, p := range g.Prods {
		if p.LHS == "" {
			return fmt.Errorf("grammar: production with empty LHS")
		}
		if base.NontermID(p.LHS) >= 0 {
			return fmt.Errorf("grammar: %s adds to a nonterminal of the base grammar", p)
		}
		nts[p.LHS] = true
	}
	if !nts[g.Start] {
		return fmt.Errorf("grammar: start symbol %q has no productions", g.Start)
	}
	for _, p := range g.Prods {
		for _, s := range p.RHS {
			if s.Name == "" {
				return fmt.Errorf("grammar: empty symbol in %s", p)
			}
			if s.Term && nts[s.Name] {
				return fmt.Errorf("grammar: symbol %q marked terminal but has productions", s.Name)
			}
			if !s.Term && !nts[s.Name] && base.NontermID(s.Name) < 0 {
				return fmt.Errorf("grammar: nonterminal %q has no productions (in %s)", s.Name, p)
			}
		}
	}
	return nil
}

// String renders the grammar in the textual format accepted by Parse,
// grouping alternatives of the same LHS.
func (g *Grammar) String() string {
	order := []string{}
	alts := map[string][]string{}
	for _, p := range g.Prods {
		if _, seen := alts[p.LHS]; !seen {
			order = append(order, p.LHS)
		}
		rhs := "eps"
		if len(p.RHS) > 0 {
			parts := make([]string, len(p.RHS))
			for i, s := range p.RHS {
				parts[i] = s.Name
			}
			rhs = strings.Join(parts, " ")
		}
		alts[p.LHS] = append(alts[p.LHS], rhs)
	}
	var b strings.Builder
	for _, lhs := range order {
		fmt.Fprintf(&b, "%s -> %s\n", lhs, strings.Join(alts[lhs], " | "))
	}
	return b.String()
}

// InverseLabel returns the label naming the inverse relation of l,
// following the paper's x̄ convention: "x" <-> "x_r".
func InverseLabel(l string) string {
	if base, ok := strings.CutSuffix(l, "_r"); ok {
		return base
	}
	return l + "_r"
}

// IsInverseLabel reports whether l names an inverse relation.
func IsInverseLabel(l string) bool { return strings.HasSuffix(l, "_r") }

// EdgeStep names the terminal of a relationship step :l of a compiled
// path pattern. It matches l's edges only (reversed for an inverse label
// "x_r"), where a plain terminal l also matches the vertices labeled l.
func EdgeStep(l string) string { return ":" + l }

// NodeCheck names the terminal of a node check (:l) of a compiled path
// pattern. It matches the vertices labeled l only.
func NodeCheck(l string) string { return "(:" + l + ")" }

// TermLabels returns the edge label and the vertex label a terminal
// matches, "" standing for none: both are the terminal itself for a
// plain terminal, and one of them for an EdgeStep or a NodeCheck.
func TermLabels(term string) (edge, vertex string) {
	if l, ok := strings.CutPrefix(term, ":"); ok {
		return l, ""
	}
	if l, ok := strings.CutPrefix(term, "(:"); ok {
		if l, ok := strings.CutSuffix(l, ")"); ok {
			return "", l
		}
	}
	return term, term
}
