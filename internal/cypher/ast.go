package cypher

import (
	"fmt"
	"strings"
)

// Query is a parsed Cypher statement: an optional PROFILE prefix,
// optional PATH PATTERN declarations, then one CREATE or
// MATCH/WHERE/RETURN block, with an optional trailing TIMEOUT clause.
type Query struct {
	PathPatterns []NamedPathPattern
	Create       *CreateClause
	Match        *MatchClause
	Where        Expr // nil when absent
	Return       *ReturnClause
	// TimeoutMS bounds the statement's execution in milliseconds
	// (trailing "TIMEOUT <ms>" clause); 0 means the server default.
	TimeoutMS int
	// Profile marks a "PROFILE MATCH ..." statement: the query runs
	// normally and its result additionally carries the execution span
	// tree with kernel counters.
	Profile bool
}

// NamedPathPattern is PATH PATTERN Name = ()-/ expr /->().
type NamedPathPattern struct {
	Name string
	Expr PathExpr
}

// CreateClause holds the patterns of a CREATE statement.
type CreateClause struct {
	Patterns []Pattern
}

// MatchClause holds the comma-separated linear patterns of MATCH.
type MatchClause struct {
	Patterns []Pattern
}

// ReturnClause lists projection items plus the result modifiers.
type ReturnClause struct {
	Items   []ReturnItem
	OrderBy []OrderKey
	Skip    int // 0 = no offset
	Limit   int // 0 = no limit
}

// ReturnItem projects a variable or a count aggregate, optionally
// renamed with AS. Count with Var == "*" is count(*).
type ReturnItem struct {
	Var   string
	Alias string
	Count bool
}

// OrderKey is one ORDER BY column (a returned variable or alias).
type OrderKey struct {
	Name string
	Desc bool
}

// Pattern is a linear chain: node, (connection, node)*.
type Pattern struct {
	Nodes       []NodePattern
	Connections []Connection // len(Connections) == len(Nodes)-1
}

// NodePattern is (v:Label {prop: value, ...}); all parts optional.
type NodePattern struct {
	Var    string
	Labels []string
	Props  []Property
}

// Property is one key-value pair of a node property map.
type Property struct {
	Key string
	Val Value
}

// Value is a literal: string or integer.
type Value struct {
	Str   string
	Int   int64
	IsInt bool
}

func (v Value) String() string {
	if v.IsInt {
		return fmt.Sprintf("%d", v.Int)
	}
	return fmt.Sprintf("'%s'", v.Str)
}

// Connection joins two consecutive nodes of a pattern: either a
// relationship pattern or a path-pattern application.
type Connection interface{ connString() string }

// RelPattern is -[r:a|b]-> or <-[:a]- ; Types empty means any label.
type RelPattern struct {
	Var     string
	Types   []string
	Inverse bool // true for <-[...]- (right to left)
}

// PathApply is -/ expr /-> or <-/ expr /- .
type PathApply struct {
	Expr    PathExpr
	Inverse bool
}

func (r RelPattern) connString() string {
	arrow := "-[%s]->"
	if r.Inverse {
		arrow = "<-[%s]-"
	}
	inner := r.Var
	if len(r.Types) > 0 {
		inner += ":" + strings.Join(r.Types, "|")
	}
	return fmt.Sprintf(arrow, inner)
}

func (p PathApply) connString() string {
	if p.Inverse {
		return "<-/ " + p.Expr.String() + " /-"
	}
	return "-/ " + p.Expr.String() + " /->"
}

// PathExpr is a path-pattern expression (CIP2017-02-06 subset).
type PathExpr interface{ String() string }

// PESeq is juxtaposition: e1 e2 ... en.
type PESeq struct{ Parts []PathExpr }

// PEAlt is alternation: e1 | e2 | ... | en.
type PEAlt struct{ Alts []PathExpr }

// PERel is a relationship step :a ; Inverse traverses the edge backwards
// (written :a_r or <:a).
type PERel struct {
	Type    string
	Inverse bool
}

// PENode is a node check (:x); empty Labels matches any node.
type PENode struct{ Labels []string }

// PERef references a named path pattern: ~S.
type PERef struct{ Name string }

// PEStar, PEPlus, PEOpt are the regular quantifiers e*, e+, e?.
type PEStar struct{ Sub PathExpr }
type PEPlus struct{ Sub PathExpr }
type PEOpt struct{ Sub PathExpr }

func (e PESeq) String() string {
	parts := make([]string, len(e.Parts))
	for i, p := range e.Parts {
		parts[i] = p.String()
	}
	return strings.Join(parts, " ")
}

func (e PEAlt) String() string {
	parts := make([]string, len(e.Alts))
	for i, p := range e.Alts {
		parts[i] = p.String()
	}
	return "[" + strings.Join(parts, " | ") + "]"
}

func (e PERel) String() string {
	if e.Inverse {
		return "<:" + e.Type
	}
	return ":" + e.Type
}

func (e PENode) String() string {
	if len(e.Labels) == 0 {
		return "()"
	}
	return "(:" + strings.Join(e.Labels, ":") + ")"
}

func (e PERef) String() string  { return "~" + e.Name }
func (e PEStar) String() string { return "[" + e.Sub.String() + "]*" }
func (e PEPlus) String() string { return "[" + e.Sub.String() + "]+" }
func (e PEOpt) String() string  { return "[" + e.Sub.String() + "]?" }

// Expr is a WHERE expression; String renders it as Cypher text.
type Expr interface{ String() string }

// AndExpr is a conjunction.
type AndExpr struct{ Left, Right Expr }

// IDCompare is id(v) = n.
type IDCompare struct {
	Var string
	ID  int64
}

// IDIn is id(v) IN [n1, n2, ...].
type IDIn struct {
	Var string
	IDs []int64
}

// PropCompare is v.key = literal.
type PropCompare struct {
	Var string
	Key string
	Val Value
}

// HasLabel is v:Label.
type HasLabel struct {
	Var   string
	Label string
}

func (e AndExpr) String() string { return e.Left.String() + " AND " + e.Right.String() }
func (e IDCompare) String() string {
	return fmt.Sprintf("id(%s) = %d", e.Var, e.ID)
}
func (e IDIn) String() string {
	parts := make([]string, len(e.IDs))
	for i, id := range e.IDs {
		parts[i] = fmt.Sprintf("%d", id)
	}
	return fmt.Sprintf("id(%s) IN [%s]", e.Var, strings.Join(parts, ", "))
}
func (e PropCompare) String() string {
	return fmt.Sprintf("%s.%s = %s", e.Var, e.Key, e.Val)
}
func (e HasLabel) String() string { return e.Var + ":" + e.Label }
