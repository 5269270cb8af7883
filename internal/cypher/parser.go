package cypher

import (
	"fmt"
	"strconv"
	"strings"
)

// Parse parses a Cypher statement.
func Parse(src string) (*Query, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &qparser{toks: toks}
	q, err := p.query()
	if err != nil {
		return nil, err
	}
	return q, nil
}

// MaxPathDepth bounds how deeply a path expression may nest: each
// bracket and each quantifier is one level, so "[[:a]+]*" nests four
// deep. The parser, PathExpr's String and the path compiler recurse
// once per level, so a deeper expression is refused with a parse error
// before it can exhaust the stack. rpq.ParseRegex applies the same
// bound to its parentheses and quantifiers.
const MaxPathDepth = 1000

type qparser struct {
	toks []token
	pos  int
	open int // brackets of the path expression being parsed, open at pos
}

func (p *qparser) cur() token  { return p.toks[p.pos] }
func (p *qparser) next() token { t := p.toks[p.pos]; p.pos++; return t }

func (p *qparser) errf(format string, args ...any) error {
	t := p.cur()
	where := fmt.Sprintf("offset %d", t.pos)
	return fmt.Errorf("cypher: %s (at %s)", fmt.Sprintf(format, args...), where)
}

// isKeyword matches an identifier token case-insensitively.
func (p *qparser) isKeyword(kw string) bool {
	t := p.cur()
	return t.kind == tokIdent && strings.EqualFold(t.text, kw)
}

func (p *qparser) acceptKeyword(kw string) bool {
	if p.isKeyword(kw) {
		p.pos++
		return true
	}
	return false
}

func (p *qparser) expectKeyword(kw string) error {
	if !p.acceptKeyword(kw) {
		return p.errf("expected %s", strings.ToUpper(kw))
	}
	return nil
}

func (p *qparser) isPunct(s string) bool {
	t := p.cur()
	return t.kind == tokPunct && t.text == s
}

func (p *qparser) acceptPunct(s string) bool {
	if p.isPunct(s) {
		p.pos++
		return true
	}
	return false
}

func (p *qparser) expectPunct(s string) error {
	if !p.acceptPunct(s) {
		return p.errf("expected %q, found %q", s, p.cur().text)
	}
	return nil
}

func (p *qparser) expectIdent() (string, error) {
	t := p.cur()
	if t.kind != tokIdent {
		return "", p.errf("expected identifier, found %q", t.text)
	}
	p.pos++
	return t.text, nil
}

func (p *qparser) query() (*Query, error) {
	q := &Query{}
	if p.acceptKeyword("profile") {
		q.Profile = true
	}
	for p.isKeyword("path") {
		np, err := p.namedPathPattern()
		if err != nil {
			return nil, err
		}
		q.PathPatterns = append(q.PathPatterns, np)
	}
	switch {
	case p.acceptKeyword("create"):
		pats, err := p.patternList()
		if err != nil {
			return nil, err
		}
		q.Create = &CreateClause{Patterns: pats}
	case p.acceptKeyword("match"):
		pats, err := p.patternList()
		if err != nil {
			return nil, err
		}
		q.Match = &MatchClause{Patterns: pats}
		if p.acceptKeyword("where") {
			e, err := p.whereExpr()
			if err != nil {
				return nil, err
			}
			q.Where = e
		}
		if err := p.expectKeyword("return"); err != nil {
			return nil, err
		}
		ret, err := p.returnClause()
		if err != nil {
			return nil, err
		}
		q.Return = ret
	default:
		return nil, p.errf("expected CREATE, MATCH or PATH PATTERN, found %q", p.cur().text)
	}
	if p.acceptKeyword("timeout") {
		n, err := p.nonNegInt("TIMEOUT")
		if err != nil {
			return nil, err
		}
		q.TimeoutMS = n
	}
	if p.cur().kind != tokEOF {
		return nil, p.errf("unexpected trailing input %q", p.cur().text)
	}
	return q, nil
}

// namedPathPattern parses: PATH PATTERN Name = ()-/ expr /->().
func (p *qparser) namedPathPattern() (NamedPathPattern, error) {
	var np NamedPathPattern
	if err := p.expectKeyword("path"); err != nil {
		return np, err
	}
	if err := p.expectKeyword("pattern"); err != nil {
		return np, err
	}
	name, err := p.expectIdent()
	if err != nil {
		return np, err
	}
	np.Name = name
	if err := p.expectPunct("="); err != nil {
		return np, err
	}
	// Leading node pattern (usually empty "()").
	lead, err := p.nodePattern()
	if err != nil {
		return np, err
	}
	if err := p.expectPunct("-/"); err != nil {
		return np, err
	}
	expr, _, err := p.pathExpr()
	if err != nil {
		return np, err
	}
	if err := p.expectPunct("/->"); err != nil {
		return np, err
	}
	trail, err := p.nodePattern()
	if err != nil {
		return np, err
	}
	// Fold end-node label checks into the expression.
	parts := []PathExpr{}
	if len(lead.Labels) > 0 {
		parts = append(parts, PENode{Labels: lead.Labels})
	}
	parts = append(parts, expr)
	if len(trail.Labels) > 0 {
		parts = append(parts, PENode{Labels: trail.Labels})
	}
	if len(parts) == 1 {
		np.Expr = parts[0]
	} else {
		np.Expr = PESeq{Parts: parts}
	}
	return np, nil
}

func (p *qparser) patternList() ([]Pattern, error) {
	var out []Pattern
	for {
		pat, err := p.pattern()
		if err != nil {
			return nil, err
		}
		out = append(out, pat)
		if !p.acceptPunct(",") {
			return out, nil
		}
	}
}

// pattern parses node (connection node)*.
func (p *qparser) pattern() (Pattern, error) {
	var pat Pattern
	n, err := p.nodePattern()
	if err != nil {
		return pat, err
	}
	pat.Nodes = append(pat.Nodes, n)
	for {
		conn, ok, err := p.connection()
		if err != nil {
			return pat, err
		}
		if !ok {
			return pat, nil
		}
		n, err := p.nodePattern()
		if err != nil {
			return pat, err
		}
		pat.Connections = append(pat.Connections, conn)
		pat.Nodes = append(pat.Nodes, n)
	}
}

// nodePattern parses (v:Label1:Label2 {k: v, ...}).
func (p *qparser) nodePattern() (NodePattern, error) {
	var n NodePattern
	if err := p.expectPunct("("); err != nil {
		return n, err
	}
	if p.cur().kind == tokIdent {
		n.Var = p.next().text
	}
	for p.acceptPunct(":") {
		l, err := p.expectIdent()
		if err != nil {
			return n, err
		}
		n.Labels = append(n.Labels, l)
	}
	if p.acceptPunct("{") {
		for {
			key, err := p.expectIdent()
			if err != nil {
				return n, err
			}
			if err := p.expectPunct(":"); err != nil {
				return n, err
			}
			val, err := p.literal()
			if err != nil {
				return n, err
			}
			n.Props = append(n.Props, Property{Key: key, Val: val})
			if !p.acceptPunct(",") {
				break
			}
		}
		if err := p.expectPunct("}"); err != nil {
			return n, err
		}
	}
	if err := p.expectPunct(")"); err != nil {
		return n, err
	}
	return n, nil
}

func (p *qparser) literal() (Value, error) {
	t := p.cur()
	switch t.kind {
	case tokString:
		p.pos++
		return Value{Str: t.text}, nil
	case tokInt:
		p.pos++
		n, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return Value{}, p.errf("bad integer %q", t.text)
		}
		return Value{Int: n, IsInt: true}, nil
	case tokPunct:
		if t.text == "-" { // negative integer
			p.pos++
			if p.cur().kind != tokInt {
				return Value{}, p.errf("expected integer after -")
			}
			n, err := strconv.ParseInt(p.next().text, 10, 64)
			if err != nil {
				return Value{}, p.errf("bad integer")
			}
			return Value{Int: -n, IsInt: true}, nil
		}
	}
	return Value{}, p.errf("expected literal, found %q", t.text)
}

// connection parses one of:
//
//	-[r:a|b]->   <-[:a]-   -->   <--   -/ expr /->   <-/ expr /-
//
// Returns ok=false when the pattern ends (no connection follows).
func (p *qparser) connection() (Connection, bool, error) {
	switch {
	case p.acceptPunct("-/"):
		expr, _, err := p.pathExpr()
		if err != nil {
			return nil, false, err
		}
		if err := p.expectPunct("/->"); err != nil {
			return nil, false, err
		}
		return PathApply{Expr: expr}, true, nil
	case p.acceptPunct("<-/"):
		expr, _, err := p.pathExpr()
		if err != nil {
			return nil, false, err
		}
		if err := p.expectPunct("/-"); err != nil {
			return nil, false, err
		}
		return PathApply{Expr: expr, Inverse: true}, true, nil
	case p.acceptPunct("-"):
		rel, err := p.relBody()
		if err != nil {
			return nil, false, err
		}
		if err := p.expectPunct("->"); err != nil {
			return nil, false, err
		}
		return rel, true, nil
	case p.acceptPunct("<-"):
		rel, err := p.relBody()
		if err != nil {
			return nil, false, err
		}
		if err := p.expectPunct("-"); err != nil {
			return nil, false, err
		}
		rel.Inverse = true
		return rel, true, nil
	case p.isPunct("->"): // "-->" lexes as "-" + "->"; handled above
		return nil, false, p.errf("unexpected ->")
	default:
		return nil, false, nil
	}
}

// relBody parses the optional [r:a|b] between the dashes.
func (p *qparser) relBody() (RelPattern, error) {
	var rel RelPattern
	if !p.acceptPunct("[") {
		return rel, nil // plain --> : any relationship
	}
	if p.cur().kind == tokIdent {
		rel.Var = p.next().text
	}
	if p.acceptPunct(":") {
		for {
			t, err := p.expectIdent()
			if err != nil {
				return rel, err
			}
			rel.Types = append(rel.Types, t)
			if !p.acceptPunct("|") {
				break
			}
			p.acceptPunct(":") // allow :a|:b style
		}
	}
	if err := p.expectPunct("]"); err != nil {
		return rel, err
	}
	return rel, nil
}

// pathExpr parses alternation of sequences. It also returns how
// deeply the expression nests (MaxPathDepth), as pathSeq and pathAtom
// do.
func (p *qparser) pathExpr() (PathExpr, int, error) {
	first, depth, err := p.pathSeq()
	if err != nil {
		return nil, 0, err
	}
	alts := []PathExpr{first}
	for p.acceptPunct("|") {
		next, d, err := p.pathSeq()
		if err != nil {
			return nil, 0, err
		}
		alts = append(alts, next)
		depth = max(depth, d)
	}
	if len(alts) == 1 {
		return first, depth, nil
	}
	return PEAlt{Alts: alts}, depth, nil
}

func (p *qparser) pathSeq() (PathExpr, int, error) {
	var parts []PathExpr
	depth := 0
	for {
		atom, d, ok, err := p.pathAtom()
		if err != nil {
			return nil, 0, err
		}
		if !ok {
			break
		}
		parts = append(parts, atom)
		depth = max(depth, d)
	}
	if len(parts) == 0 {
		return nil, 0, p.errf("empty path-pattern sequence")
	}
	if len(parts) == 1 {
		return parts[0], depth, nil
	}
	return PESeq{Parts: parts}, depth, nil
}

// pathAtom parses :rel, <:rel, (:label), ~Ref or [ expr ] with optional
// quantifiers. ok=false signals the end of the sequence. A bracket
// deeper than MaxPathDepth is refused before its contents are parsed,
// so the recursion stays bounded too.
func (p *qparser) pathAtom() (atom PathExpr, depth int, ok bool, err error) {
	switch {
	case p.acceptPunct(":"):
		t, err := p.expectIdent()
		if err != nil {
			return nil, 0, false, err
		}
		atom = PERel{Type: t}
	case p.acceptPunct("<"):
		if err := p.expectPunct(":"); err != nil {
			return nil, 0, false, err
		}
		t, err := p.expectIdent()
		if err != nil {
			return nil, 0, false, err
		}
		atom = PERel{Type: t, Inverse: true}
	case p.acceptPunct("~"):
		name, err := p.expectIdent()
		if err != nil {
			return nil, 0, false, err
		}
		atom = PERef{Name: name}
	case p.isPunct("("):
		n, err := p.nodePattern()
		if err != nil {
			return nil, 0, false, err
		}
		if n.Var != "" || len(n.Props) > 0 {
			return nil, 0, false, p.errf("node checks inside path patterns take only labels")
		}
		atom = PENode{Labels: n.Labels}
	case p.acceptPunct("["):
		if p.open++; p.open > MaxPathDepth {
			return nil, 0, false, p.errf("path expression nested deeper than %d", MaxPathDepth)
		}
		inner, d, err := p.pathExpr()
		p.open--
		if err != nil {
			return nil, 0, false, err
		}
		if err := p.expectPunct("]"); err != nil {
			return nil, 0, false, err
		}
		atom, depth = inner, d+1
	default:
		return nil, 0, false, nil
	}
	for {
		if depth > MaxPathDepth {
			return nil, 0, false, p.errf("path expression nested deeper than %d", MaxPathDepth)
		}
		switch {
		case p.acceptPunct("*"):
			atom = PEStar{Sub: atom}
		case p.acceptPunct("+"):
			atom = PEPlus{Sub: atom}
		case p.acceptPunct("?"):
			atom = PEOpt{Sub: atom}
		default:
			return atom, depth, true, nil
		}
		depth++
	}
}

// whereExpr parses conjunctions of simple predicates.
func (p *qparser) whereExpr() (Expr, error) {
	left, err := p.predicate()
	if err != nil {
		return nil, err
	}
	for p.acceptKeyword("and") {
		right, err := p.predicate()
		if err != nil {
			return nil, err
		}
		left = AndExpr{Left: left, Right: right}
	}
	return left, nil
}

func (p *qparser) predicate() (Expr, error) {
	if p.isKeyword("id") {
		p.pos++
		if err := p.expectPunct("("); err != nil {
			return nil, err
		}
		v, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
		switch {
		case p.acceptPunct("="):
			val, err := p.literal()
			if err != nil || !val.IsInt {
				return nil, p.errf("id() compares to an integer")
			}
			return IDCompare{Var: v, ID: val.Int}, nil
		case p.acceptKeyword("in"):
			if err := p.expectPunct("["); err != nil {
				return nil, err
			}
			var ids []int64
			for {
				val, err := p.literal()
				if err != nil || !val.IsInt {
					return nil, p.errf("id() IN takes integers")
				}
				ids = append(ids, val.Int)
				if !p.acceptPunct(",") {
					break
				}
			}
			if err := p.expectPunct("]"); err != nil {
				return nil, err
			}
			return IDIn{Var: v, IDs: ids}, nil
		default:
			return nil, p.errf("expected = or IN after id()")
		}
	}
	v, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	switch {
	case p.acceptPunct("."):
		key, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct("="); err != nil {
			return nil, err
		}
		val, err := p.literal()
		if err != nil {
			return nil, err
		}
		return PropCompare{Var: v, Key: key, Val: val}, nil
	case p.acceptPunct(":"):
		label, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		return HasLabel{Var: v, Label: label}, nil
	default:
		return nil, p.errf("expected predicate")
	}
}

func (p *qparser) returnClause() (*ReturnClause, error) {
	ret := &ReturnClause{}
	for {
		item, err := p.returnItem()
		if err != nil {
			return nil, err
		}
		ret.Items = append(ret.Items, item)
		if !p.acceptPunct(",") {
			break
		}
	}
	if p.acceptKeyword("order") {
		if err := p.expectKeyword("by"); err != nil {
			return nil, err
		}
		for {
			name, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			key := OrderKey{Name: name}
			if p.acceptKeyword("desc") {
				key.Desc = true
			} else {
				p.acceptKeyword("asc")
			}
			ret.OrderBy = append(ret.OrderBy, key)
			if !p.acceptPunct(",") {
				break
			}
		}
	}
	if p.acceptKeyword("skip") {
		n, err := p.nonNegInt("SKIP")
		if err != nil {
			return nil, err
		}
		ret.Skip = n
	}
	if p.acceptKeyword("limit") {
		n, err := p.nonNegInt("LIMIT")
		if err != nil {
			return nil, err
		}
		ret.Limit = n
	}
	return ret, nil
}

// returnItem parses "v", "count(v)", "count(*)", each with optional AS.
func (p *qparser) returnItem() (ReturnItem, error) {
	var item ReturnItem
	if p.isKeyword("count") && p.pos+1 < len(p.toks) &&
		p.toks[p.pos+1].kind == tokPunct && p.toks[p.pos+1].text == "(" {
		p.pos += 2
		if p.acceptPunct("*") {
			item = ReturnItem{Var: "*", Count: true}
		} else {
			v, err := p.expectIdent()
			if err != nil {
				return item, err
			}
			item = ReturnItem{Var: v, Count: true}
		}
		if err := p.expectPunct(")"); err != nil {
			return item, err
		}
	} else {
		v, err := p.expectIdent()
		if err != nil {
			return item, err
		}
		item = ReturnItem{Var: v}
	}
	if p.acceptKeyword("as") {
		alias, err := p.expectIdent()
		if err != nil {
			return item, err
		}
		item.Alias = alias
	}
	return item, nil
}

func (p *qparser) nonNegInt(what string) (int, error) {
	t := p.cur()
	if t.kind != tokInt {
		return 0, p.errf("%s takes an integer", what)
	}
	p.pos++
	n, err := strconv.Atoi(t.text)
	if err != nil || n < 0 {
		return 0, p.errf("bad %s %q", what, t.text)
	}
	return n, nil
}
