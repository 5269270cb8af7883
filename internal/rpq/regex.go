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
	"unicode/utf8"

	"mscfpq/internal/cypher"
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
	open int // parentheses open at pos
}

// ParseRegex parses a path regular expression. Like a query's path
// expression, it may nest at most cypher.MaxPathDepth levels, each
// parenthesis and each quantifier counting one.
func ParseRegex(src string) (Node, error) {
	toks, err := lexRegex(src)
	if err != nil {
		return nil, err
	}
	if len(toks) == 0 {
		return nil, fmt.Errorf("rpq: empty regex")
	}
	p := &parser{toks: toks}
	node, _, err := p.alt()
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
		c, n := utf8.DecodeRuneInString(src[i:])
		switch {
		case c == utf8.RuneError && n == 1:
			return nil, fmt.Errorf("rpq: invalid UTF-8 at offset %d", i)
		case unicode.IsSpace(c):
			i += n
		case strings.ContainsRune("()|*+?", c):
			toks = append(toks, string(c))
			i += n
		case isLabelRune(c):
			j := i + n
			for j < len(src) {
				r, m := utf8.DecodeRuneInString(src[j:])
				if !isLabelRune(r) {
					break
				}
				j += m
			}
			toks = append(toks, src[i:j])
			i = j
		default:
			return nil, fmt.Errorf("rpq: invalid character %q", c)
		}
	}
	return toks, nil
}

// isLabelRune reports whether r may occur in a label.
func isLabelRune(r rune) bool { return r == '_' || unicode.IsLetter(r) || unicode.IsDigit(r) }

func (p *parser) peek() string {
	if p.pos < len(p.toks) {
		return p.toks[p.pos]
	}
	return ""
}

// alt, concat, postfix and atom each return how deeply their
// expression nests (cypher.MaxPathDepth).
func (p *parser) alt() (Node, int, error) {
	left, depth, err := p.concat()
	if err != nil {
		return nil, 0, err
	}
	for p.peek() == "|" {
		p.pos++
		right, d, err := p.concat()
		if err != nil {
			return nil, 0, err
		}
		left, depth = Alt{Left: left, Right: right}, max(depth, d)
	}
	return left, depth, nil
}

func (p *parser) concat() (Node, int, error) {
	left, depth, err := p.postfix()
	if err != nil {
		return nil, 0, err
	}
	for {
		t := p.peek()
		if t == "" || t == ")" || t == "|" {
			return left, depth, nil
		}
		right, d, err := p.postfix()
		if err != nil {
			return nil, 0, err
		}
		left, depth = Concat{Left: left, Right: right}, max(depth, d)
	}
}

func (p *parser) postfix() (Node, int, error) {
	node, depth, err := p.atom()
	if err != nil {
		return nil, 0, err
	}
	for {
		if depth > cypher.MaxPathDepth {
			return nil, 0, errTooDeep
		}
		switch p.peek() {
		case "*":
			node = Star{Sub: node}
		case "+":
			node = Plus{Sub: node}
		case "?":
			node = Opt{Sub: node}
		default:
			return node, depth, nil
		}
		p.pos++
		depth++
	}
}

var errTooDeep = fmt.Errorf("rpq: regex nested deeper than %d", cypher.MaxPathDepth)

func (p *parser) atom() (Node, int, error) {
	t := p.peek()
	switch t {
	case "":
		return nil, 0, fmt.Errorf("rpq: unexpected end of regex")
	case "(":
		p.pos++
		if p.open++; p.open > cypher.MaxPathDepth {
			return nil, 0, errTooDeep
		}
		node, depth, err := p.alt()
		p.open--
		if err != nil {
			return nil, 0, err
		}
		if p.peek() != ")" {
			return nil, 0, fmt.Errorf("rpq: missing closing parenthesis")
		}
		p.pos++
		return node, depth + 1, nil
	case ")", "|", "*", "+", "?":
		return nil, 0, fmt.Errorf("rpq: unexpected token %q", t)
	default:
		p.pos++
		return Label{Name: t}, 0, nil
	}
}
