// Package cypher implements the query front end of the database layer:
// a lexer, AST and recursive-descent parser for the Cypher subset the
// paper's RedisGraph extension supports — CREATE / MATCH / WHERE /
// RETURN — plus the openCypher path-pattern extension (CIP2017-02-06)
// the paper implements in libcypher-parser: PATH PATTERN declarations
// and -/ ... /-> path-pattern connections with sequencing, alternation,
// grouping, node checks, references (~Name) and quantifiers.
package cypher

import (
	"fmt"
	"strings"
	"unicode"
	"unicode/utf8"
)

// tokenKind enumerates lexical classes.
type tokenKind int

const (
	tokEOF tokenKind = iota
	tokIdent
	tokInt
	tokString
	tokPunct // single- or multi-rune punctuation, stored in text
)

type token struct {
	kind tokenKind
	text string
	pos  int // byte offset, for error messages
}

// lexer splits query text into tokens. Multi-rune punctuation relevant
// to patterns (->, <-, -/, /->, /-) is emitted as single tokens.
type lexer struct {
	src  string
	pos  int
	toks []token
}

func lex(src string) ([]token, error) {
	// Half the text's length in tokens is room for a statement like a
	// sweep's chunk query (88 tokens in 225 bytes) without growing; the
	// cap keeps a long text from reserving more than ~32 KiB up front.
	l := &lexer{src: src, toks: make([]token, 0, min(len(src)/2, 1024)+1)}
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			l.pos++
		case c == '/' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '/':
			for l.pos < len(l.src) && l.src[l.pos] != '\n' {
				l.pos++
			}
		case isIdentStart(l.runeAt()):
			l.lexIdent()
		case c >= '0' && c <= '9':
			l.lexInt()
		case c == '\'' || c == '"':
			if err := l.lexString(); err != nil {
				return nil, err
			}
		default:
			if err := l.lexPunct(); err != nil {
				return nil, err
			}
		}
	}
	l.toks = append(l.toks, token{kind: tokEOF, pos: l.pos})
	return l.toks, nil
}

func isIdentStart(r rune) bool { return r == '_' || unicode.IsLetter(r) }
func isIdentPart(r rune) bool  { return r == '_' || unicode.IsLetter(r) || unicode.IsDigit(r) }

// runeAt decodes the character at l.pos: utf8.RuneError, one byte
// wide, where the text is not valid UTF-8.
func (l *lexer) runeAt() rune {
	r, _ := utf8.DecodeRuneInString(l.src[l.pos:])
	return r
}

func (l *lexer) lexIdent() {
	start := l.pos
	for l.pos < len(l.src) {
		r, n := utf8.DecodeRuneInString(l.src[l.pos:])
		if !isIdentPart(r) {
			break
		}
		l.pos += n
	}
	l.toks = append(l.toks, token{kind: tokIdent, text: l.src[start:l.pos], pos: start})
}

func (l *lexer) lexInt() {
	start := l.pos
	for l.pos < len(l.src) && l.src[l.pos] >= '0' && l.src[l.pos] <= '9' {
		l.pos++
	}
	l.toks = append(l.toks, token{kind: tokInt, text: l.src[start:l.pos], pos: start})
}

func (l *lexer) lexString() error {
	quote := l.src[l.pos]
	start := l.pos
	l.pos++
	var b strings.Builder
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if c == quote {
			l.pos++
			l.toks = append(l.toks, token{kind: tokString, text: b.String(), pos: start})
			return nil
		}
		if c == '\\' && l.pos+1 < len(l.src) {
			l.pos++
			c = l.src[l.pos]
		}
		b.WriteByte(c)
		l.pos++
	}
	return fmt.Errorf("cypher: unterminated string at offset %d", start)
}

// lexPunct emits the punctuation token at l.pos: a multi-byte one
// (/->, /-, <-/, <-, <>, <=, ->, -/, >=), longest first, or one of
// the single bytes ()[]{}-<>|:,=~*+?./. A token's text is a slice of
// the source, so none allocates.
func (l *lexer) lexPunct() error {
	rest := l.src[l.pos:]
	n := 1
	switch rest[0] {
	case '/':
		if strings.HasPrefix(rest, "/->") {
			n = 3
		} else if strings.HasPrefix(rest, "/-") {
			n = 2
		}
	case '<':
		if strings.HasPrefix(rest, "<-/") {
			n = 3
		} else if strings.HasPrefix(rest, "<-") || strings.HasPrefix(rest, "<>") || strings.HasPrefix(rest, "<=") {
			n = 2
		}
	case '-':
		if strings.HasPrefix(rest, "->") || strings.HasPrefix(rest, "-/") {
			n = 2
		}
	case '>':
		if strings.HasPrefix(rest, ">=") {
			n = 2
		}
	case '(', ')', '[', ']', '{', '}', '|', ':', ',', '=', '~', '*', '+', '?', '.':
	default:
		if r, n := utf8.DecodeRuneInString(rest); r != utf8.RuneError || n > 1 {
			return fmt.Errorf("cypher: invalid character %q at offset %d", r, l.pos)
		}
		return fmt.Errorf("cypher: invalid UTF-8 at offset %d", l.pos)
	}
	l.toks = append(l.toks, token{kind: tokPunct, text: rest[:n], pos: l.pos})
	l.pos += n
	return nil
}
