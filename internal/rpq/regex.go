// Package rpq implements regular path querying: parsing of path regular
// expressions and their evaluation as a partial case of CFPQ.
//
// The paper's conclusion demonstrates that regular queries are a partial
// case of CFPQ, so there is no separate automaton evaluator. Compile
// translates a regex into the path expression it denotes and compiles it
// with the query language's path-pattern compiler, the one compiler from
// path expressions to grammars. Its sequences fold left, into the
// left-linear grammar on which the driver is Belyanin et al.'s
// vector-times-matrix BFS. Eval runs that grammar through the
// multiple-source CFPQ driver (experiment E11), and internal/oracle's
// relation algebra over the regex AST is the independent reference it
// is tested against.
//
// Regex syntax over graph labels:
//
//	subClassOf type_r            concatenation (juxtaposition)
//	a | b                        alternation
//	a* a+ a?                     closure, positive closure, option
//	(a b)* c                     grouping
//
// Identifiers consist of letters, digits and underscores; the "_r"
// suffix denotes inverse traversal, as everywhere in this module.
package rpq

import (
	"fmt"
	"strings"
	"unicode"
)

// Node is a regular expression AST node.
type Node interface{ String() string }

// Label matches one edge (or vertex) label.
type Label struct{ Name string }

// Concat matches Left followed by Right.
type Concat struct{ Left, Right Node }

// Alt matches Left or Right.
type Alt struct{ Left, Right Node }

// Star matches zero or more repetitions.
type Star struct{ Sub Node }

// Plus matches one or more repetitions.
type Plus struct{ Sub Node }

// Opt matches zero or one occurrence.
type Opt struct{ Sub Node }

func (n Label) String() string  { return n.Name }
func (n Concat) String() string { return n.Left.String() + " " + n.Right.String() }
func (n Alt) String() string    { return "(" + n.Left.String() + " | " + n.Right.String() + ")" }
func (n Star) String() string   { return "(" + n.Sub.String() + ")*" }
func (n Plus) String() string   { return "(" + n.Sub.String() + ")+" }
func (n Opt) String() string    { return "(" + n.Sub.String() + ")?" }

type parser struct {
	toks []string
	pos  int
}

// ParseRegex parses a path regular expression.
func ParseRegex(src string) (Node, error) {
	toks, err := lexRegex(src)
	if err != nil {
		return nil, err
	}
	if len(toks) == 0 {
		return nil, fmt.Errorf("rpq: empty regex")
	}
	p := &parser{toks: toks}
	node, err := p.alt()
	if err != nil {
		return nil, err
	}
	if p.pos != len(p.toks) {
		return nil, fmt.Errorf("rpq: unexpected token %q", p.toks[p.pos])
	}
	return node, nil
}

func lexRegex(src string) ([]string, error) {
	var toks []string
	i := 0
	for i < len(src) {
		c := rune(src[i])
		switch {
		case unicode.IsSpace(c):
			i++
		case strings.ContainsRune("()|*+?", c):
			toks = append(toks, string(c))
			i++
		case c == '_' || unicode.IsLetter(c) || unicode.IsDigit(c):
			j := i
			for j < len(src) {
				r := rune(src[j])
				if r == '_' || unicode.IsLetter(r) || unicode.IsDigit(r) {
					j++
				} else {
					break
				}
			}
			toks = append(toks, src[i:j])
			i = j
		default:
			return nil, fmt.Errorf("rpq: invalid character %q", c)
		}
	}
	return toks, nil
}

func (p *parser) peek() string {
	if p.pos < len(p.toks) {
		return p.toks[p.pos]
	}
	return ""
}

func (p *parser) alt() (Node, error) {
	left, err := p.concat()
	if err != nil {
		return nil, err
	}
	for p.peek() == "|" {
		p.pos++
		right, err := p.concat()
		if err != nil {
			return nil, err
		}
		left = Alt{Left: left, Right: right}
	}
	return left, nil
}

func (p *parser) concat() (Node, error) {
	left, err := p.postfix()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		if t == "" || t == ")" || t == "|" {
			return left, nil
		}
		right, err := p.postfix()
		if err != nil {
			return nil, err
		}
		left = Concat{Left: left, Right: right}
	}
}

func (p *parser) postfix() (Node, error) {
	node, err := p.atom()
	if err != nil {
		return nil, err
	}
	for {
		switch p.peek() {
		case "*":
			p.pos++
			node = Star{Sub: node}
		case "+":
			p.pos++
			node = Plus{Sub: node}
		case "?":
			p.pos++
			node = Opt{Sub: node}
		default:
			return node, nil
		}
	}
}

func (p *parser) atom() (Node, error) {
	t := p.peek()
	switch t {
	case "":
		return nil, fmt.Errorf("rpq: unexpected end of regex")
	case "(":
		p.pos++
		node, err := p.alt()
		if err != nil {
			return nil, err
		}
		if p.peek() != ")" {
			return nil, fmt.Errorf("rpq: missing closing parenthesis")
		}
		p.pos++
		return node, nil
	case ")", "|", "*", "+", "?":
		return nil, fmt.Errorf("rpq: unexpected token %q", t)
	default:
		p.pos++
		return Label{Name: t}, nil
	}
}
