package cypher

import (
	"strings"
	"testing"
)

func mustParse(t *testing.T, src string) *Query {
	t.Helper()
	q, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse(%q): %v", src, err)
	}
	return q
}

func TestParseListing4(t *testing.T) {
	// Paper listing 4: simple unnamed path pattern with alternation.
	q := mustParse(t, `MATCH (v)-/ [:a (:x) :b] | [:c (:y) :d] /->(to) RETURN v, to`)
	if q.Match == nil || len(q.Match.Patterns) != 1 {
		t.Fatal("expected one match pattern")
	}
	pat := q.Match.Patterns[0]
	if len(pat.Nodes) != 2 || pat.Nodes[0].Var != "v" || pat.Nodes[1].Var != "to" {
		t.Fatalf("nodes = %+v", pat.Nodes)
	}
	pa, ok := pat.Connections[0].(PathApply)
	if !ok {
		t.Fatalf("connection = %T", pat.Connections[0])
	}
	alt, ok := pa.Expr.(PEAlt)
	if !ok || len(alt.Alts) != 2 {
		t.Fatalf("expr = %v", pa.Expr)
	}
	seq, ok := alt.Alts[0].(PESeq)
	if !ok || len(seq.Parts) != 3 {
		t.Fatalf("first alt = %v", alt.Alts[0])
	}
	if rel, ok := seq.Parts[0].(PERel); !ok || rel.Type != "a" {
		t.Fatalf("first step = %v", seq.Parts[0])
	}
	if node, ok := seq.Parts[1].(PENode); !ok || len(node.Labels) != 1 || node.Labels[0] != "x" {
		t.Fatalf("middle step = %v", seq.Parts[1])
	}
	if len(q.Return.Items) != 2 {
		t.Fatalf("return = %+v", q.Return)
	}
}

func TestParseListing5(t *testing.T) {
	// Paper listing 5: named path pattern (a^n b^n).
	q := mustParse(t, `
		PATH PATTERN S = ()-/ [:a ~S :b] | [:a :b] /->()
		MATCH (v)-/ ~S /->(to)
		RETURN v, to`)
	if len(q.PathPatterns) != 1 || q.PathPatterns[0].Name != "S" {
		t.Fatalf("path patterns = %+v", q.PathPatterns)
	}
	alt, ok := q.PathPatterns[0].Expr.(PEAlt)
	if !ok || len(alt.Alts) != 2 {
		t.Fatalf("expr = %v", q.PathPatterns[0].Expr)
	}
	seq := alt.Alts[0].(PESeq)
	if ref, ok := seq.Parts[1].(PERef); !ok || ref.Name != "S" {
		t.Fatalf("reference = %v", seq.Parts[1])
	}
}

func TestParseListing7(t *testing.T) {
	// Paper listing 7: mixed relationship, node and path patterns.
	q := mustParse(t, `
		PATH PATTERN S = ()-/ [:c ~S :d] | [:c (:y) :d] /->()
		MATCH (v:x)-[:a]->()-/ :b ~S /->(to)
		RETURN v, to`)
	pat := q.Match.Patterns[0]
	if len(pat.Nodes) != 3 || len(pat.Connections) != 2 {
		t.Fatalf("pattern shape: %d nodes, %d connections", len(pat.Nodes), len(pat.Connections))
	}
	if pat.Nodes[0].Var != "v" || len(pat.Nodes[0].Labels) != 1 || pat.Nodes[0].Labels[0] != "x" {
		t.Fatalf("first node = %+v", pat.Nodes[0])
	}
	rel, ok := pat.Connections[0].(RelPattern)
	if !ok || len(rel.Types) != 1 || rel.Types[0] != "a" || rel.Inverse {
		t.Fatalf("rel = %+v", pat.Connections[0])
	}
	pa, ok := pat.Connections[1].(PathApply)
	if !ok {
		t.Fatalf("second connection = %T", pat.Connections[1])
	}
	seq, ok := pa.Expr.(PESeq)
	if !ok || len(seq.Parts) != 2 {
		t.Fatalf("path expr = %v", pa.Expr)
	}
}

func TestParseCreate(t *testing.T) {
	q := mustParse(t, `CREATE (a:Person {name: 'Ann', age: 41})-[:knows]->(b:Person), (b)-[:knows]->(a)`)
	if q.Create == nil || len(q.Create.Patterns) != 2 {
		t.Fatal("create patterns wrong")
	}
	n := q.Create.Patterns[0].Nodes[0]
	if n.Var != "a" || n.Labels[0] != "Person" || len(n.Props) != 2 {
		t.Fatalf("node = %+v", n)
	}
	if n.Props[0].Key != "name" || n.Props[0].Val.Str != "Ann" {
		t.Fatalf("prop = %+v", n.Props[0])
	}
	if n.Props[1].Key != "age" || !n.Props[1].Val.IsInt || n.Props[1].Val.Int != 41 {
		t.Fatalf("prop = %+v", n.Props[1])
	}
}

func TestParseInverseRelAndAnyRel(t *testing.T) {
	q := mustParse(t, `MATCH (a)<-[:likes]-(b)-->(c) RETURN a`)
	pat := q.Match.Patterns[0]
	rel := pat.Connections[0].(RelPattern)
	if !rel.Inverse || rel.Types[0] != "likes" {
		t.Fatalf("rel = %+v", rel)
	}
	anyRel := pat.Connections[1].(RelPattern)
	if anyRel.Inverse || len(anyRel.Types) != 0 {
		t.Fatalf("any rel = %+v", anyRel)
	}
}

func TestParseRelAlternation(t *testing.T) {
	q := mustParse(t, `MATCH (a)-[r:x|y|:z]->(b) RETURN r`)
	rel := q.Match.Patterns[0].Connections[0].(RelPattern)
	if rel.Var != "r" || len(rel.Types) != 3 {
		t.Fatalf("rel = %+v", rel)
	}
}

func TestParseWhere(t *testing.T) {
	q := mustParse(t, `MATCH (v)-[:a]->(u) WHERE id(v) IN [1, 2, 3] AND u.name = 'x' AND v:Label AND id(u) = 7 RETURN v`)
	if q.Where == nil {
		t.Fatal("missing where")
	}
	s := q.Where.String()
	for _, want := range []string{"id(v) IN [1, 2, 3]", "u.name = 'x'", "v:Label", "id(u) = 7"} {
		if !strings.Contains(s, want) {
			t.Fatalf("where %q missing %q", s, want)
		}
	}
}

func TestParseReturnAliasAndLimit(t *testing.T) {
	q := mustParse(t, `MATCH (v) RETURN v AS vertex LIMIT 10`)
	if q.Return.Items[0].Alias != "vertex" || q.Return.Limit != 10 {
		t.Fatalf("return = %+v", q.Return)
	}
}

func TestParseCountAndOrderBy(t *testing.T) {
	q := mustParse(t, `MATCH (v)-[:a]->(u) RETURN v, count(u) AS deg, count(*) ORDER BY deg DESC, v ASC SKIP 2 LIMIT 5`)
	items := q.Return.Items
	if len(items) != 3 {
		t.Fatalf("items = %+v", items)
	}
	if items[0].Count || items[0].Var != "v" {
		t.Fatalf("item 0 = %+v", items[0])
	}
	if !items[1].Count || items[1].Var != "u" || items[1].Alias != "deg" {
		t.Fatalf("item 1 = %+v", items[1])
	}
	if !items[2].Count || items[2].Var != "*" {
		t.Fatalf("item 2 = %+v", items[2])
	}
	ob := q.Return.OrderBy
	if len(ob) != 2 || ob[0].Name != "deg" || !ob[0].Desc || ob[1].Name != "v" || ob[1].Desc {
		t.Fatalf("order by = %+v", ob)
	}
	if q.Return.Skip != 2 || q.Return.Limit != 5 {
		t.Fatalf("skip/limit = %d/%d", q.Return.Skip, q.Return.Limit)
	}
}

func TestParseCountVarNamedCount(t *testing.T) {
	// "count" not followed by "(" is an ordinary variable.
	q := mustParse(t, `MATCH (count)-[:a]->(u) RETURN count`)
	if q.Return.Items[0].Count || q.Return.Items[0].Var != "count" {
		t.Fatalf("item = %+v", q.Return.Items[0])
	}
}

func TestParseReturnErrors(t *testing.T) {
	for _, src := range []string{
		`MATCH (v) RETURN count(v`,    // unclosed
		`MATCH (v) RETURN v ORDER v`,  // missing BY
		`MATCH (v) RETURN v SKIP x`,   // bad skip
		`MATCH (v) RETURN v ORDER BY`, // missing key
	} {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q): expected error", src)
		}
	}
}

func TestParseQuantifiersAndInverseSteps(t *testing.T) {
	q := mustParse(t, `MATCH (v)-/ [:a]* <:b [:c | :d]+ [:e]? /->(u) RETURN v`)
	pa := q.Match.Patterns[0].Connections[0].(PathApply)
	seq := pa.Expr.(PESeq)
	if _, ok := seq.Parts[0].(PEStar); !ok {
		t.Fatalf("part 0 = %T", seq.Parts[0])
	}
	if rel, ok := seq.Parts[1].(PERel); !ok || !rel.Inverse || rel.Type != "b" {
		t.Fatalf("part 1 = %v", seq.Parts[1])
	}
	if _, ok := seq.Parts[2].(PEPlus); !ok {
		t.Fatalf("part 2 = %T", seq.Parts[2])
	}
	if _, ok := seq.Parts[3].(PEOpt); !ok {
		t.Fatalf("part 3 = %T", seq.Parts[3])
	}
}

func TestParseInversePathApply(t *testing.T) {
	q := mustParse(t, `MATCH (v)<-/ :a :b /-(u) RETURN v`)
	pa := q.Match.Patterns[0].Connections[0].(PathApply)
	if !pa.Inverse {
		t.Fatal("expected inverse path apply")
	}
}

func TestNamedPatternEndLabelsFolded(t *testing.T) {
	q := mustParse(t, `
		PATH PATTERN P = (:x)-/ :a /->(:y)
		MATCH (v)-/ ~P /->(u)
		RETURN v`)
	seq, ok := q.PathPatterns[0].Expr.(PESeq)
	if !ok || len(seq.Parts) != 3 {
		t.Fatalf("expr = %v", q.PathPatterns[0].Expr)
	}
	if n, ok := seq.Parts[0].(PENode); !ok || n.Labels[0] != "x" {
		t.Fatalf("lead = %v", seq.Parts[0])
	}
	if n, ok := seq.Parts[2].(PENode); !ok || n.Labels[0] != "y" {
		t.Fatalf("trail = %v", seq.Parts[2])
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		``,
		`MATCH (v RETURN v`,
		`MATCH (v)-[:a]->(u)`,                  // missing RETURN
		`MATCH (v)-/ /->(u) RETURN v`,          // empty path expr
		`MATCH (v)-/ :a (w:x) /->(u) RETURN v`, // var in node check
		`RETURN v`,                             // no MATCH
		`MATCH (v) WHERE id(v) = 'x' RETURN v`, // id compares to string
		`MATCH (v) RETURN v LIMIT x`,           // bad limit
		`MATCH (v) RETURN v extra`,             // trailing input
		`PATH PATTERN = ()-/ :a /->() MATCH (v) RETURN v`, // missing name
		`MATCH (v)<-/ :a /->(u) RETURN v`,                 // mismatched arrows
		`CREATE (a {name: })`,                             // bad literal
		`MATCH (v) WHERE id(v) IN [1; 2] RETURN v`,        // bad list (lexer error)
	}
	for _, src := range cases {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q): expected error", src)
		}
	}
}

// TestParseUTF8Identifiers: variables, labels and relationship types
// may hold any Unicode letter; an error names the character the text
// holds, and invalid UTF-8 is a parse error.
func TestParseUTF8Identifiers(t *testing.T) {
	q := mustParse(t, `MATCH (é) RETURN é`)
	if n := q.Match.Patterns[0].Nodes[0]; n.Var != "é" {
		t.Fatalf("node = %+v, want variable é", n)
	}
	q = mustParse(t, `MATCH (v:Ärzte)-[:kennt]->(u:日本) RETURN v`)
	pat := q.Match.Patterns[0]
	if pat.Nodes[0].Labels[0] != "Ärzte" || pat.Nodes[1].Labels[0] != "日本" {
		t.Fatalf("labels = %v, %v", pat.Nodes[0].Labels, pat.Nodes[1].Labels)
	}
	for src, want := range map[string]string{
		`MATCH (v) RETURN v §`:       `invalid character '§' at offset 19`,
		"MATCH (v) RETURN v \xff":    `invalid UTF-8 at offset 19`,
		"MATCH (\xc3) RETURN v":      `invalid UTF-8 at offset 7`,
		"MATCH (v\xe6\x97) RETURN v": `invalid UTF-8 at offset 8`,
	} {
		if _, err := Parse(src); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("Parse(%q) = %v, want an error with %q", src, err, want)
		}
	}
}

// TestParsePathDepthBound checks that a path expression may nest
// MaxPathDepth levels and no more, brackets and quantifiers each
// counting one, and that the bound holds for quantifiers on brackets.
func TestParsePathDepthBound(t *testing.T) {
	brackets := func(n int, inner string) string {
		return strings.Repeat("[", n) + inner + strings.Repeat("]", n)
	}
	stmt := func(expr string) string {
		return "MATCH (v)-/ " + expr + " /->(to) RETURN count(to)"
	}
	half := MaxPathDepth / 2
	for _, c := range []struct {
		expr string
		ok   bool
	}{
		{brackets(MaxPathDepth, ":a"), true},
		{brackets(MaxPathDepth+1, ":a"), false},
		{":a" + strings.Repeat("+", MaxPathDepth), true},
		{":a" + strings.Repeat("+", MaxPathDepth+1), false},
		{brackets(half, ":a"+strings.Repeat("*", MaxPathDepth-half)), true},
		{brackets(half, ":a"+strings.Repeat("*", MaxPathDepth-half+1)), false},
		{"[" + brackets(half-1, ":a") + strings.Repeat("?", MaxPathDepth-half) + "]", true},
		{"[" + brackets(half-1, ":a") + strings.Repeat("?", MaxPathDepth-half+1) + "]", false},
		{":b | " + brackets(MaxPathDepth+1, ":a") + " | :c", false},
	} {
		_, err := Parse(stmt(c.expr))
		if c.ok && err != nil {
			t.Errorf("%.40s...: %v", c.expr, err)
		}
		if !c.ok && (err == nil || !strings.Contains(err.Error(), "nested deeper")) {
			t.Errorf("%.40s...: err = %v, want the depth error", c.expr, err)
		}
	}
}

func TestLexerStringsAndComments(t *testing.T) {
	q := mustParse(t, "MATCH (v {name: 'O\\'Hara'}) // trailing comment\nRETURN v")
	if q.Match.Patterns[0].Nodes[0].Props[0].Val.Str != "O'Hara" {
		t.Fatalf("escaped string wrong: %+v", q.Match.Patterns[0].Nodes[0].Props)
	}
}

func TestKeywordsCaseInsensitive(t *testing.T) {
	mustParse(t, `match (v) return v`)
	mustParse(t, `Match (v) Where id(v) = 1 Return v`)
	mustParse(t, `path pattern P = ()-/ :a /->() match (v)-/ ~P /->(u) return v, u`)
}

func TestConnStringRendering(t *testing.T) {
	q := mustParse(t, `MATCH (v)-[:a]->(u)-/ :b ~S | (:x) /->(w) RETURN v`)
	conns := q.Match.Patterns[0].Connections
	if got := conns[0].connString(); got != "-[:a]->" {
		t.Fatalf("rel string = %q", got)
	}
	if got := conns[1].connString(); !strings.Contains(got, "~S") {
		t.Fatalf("path string = %q", got)
	}
}
