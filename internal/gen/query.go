package gen

import (
	"fmt"
	"math/rand"
	"strings"

	"mscfpq/internal/cypher"
	"mscfpq/internal/graph"
)

// PathQuery is one case of the query-language differential check
// (difftest.CheckQuery): a graph, the PATH PATTERN declarations that every
// statement of the case shares, and MATCH statements over them — each as
// the AST the oracle reads and as the text the database parses.
type PathQuery struct {
	G       *graph.Graph
	Decls   []cypher.NamedPathPattern
	Queries []*cypher.Query
	Texts   []string // Texts[i] is Queries[i] as a statement
}

// queriesPerCase is how many statements one case sends to its store.
const queriesPerCase = 4

// patternNames are the names declarations draw from, in order.
var patternNames = []string{"S", "A", "B"}

// NewPathQuery derives a case from a seed. The graph has at most maxN
// vertices, and its edge labels also label a few vertices, so a node
// check that matched edges as well would show. There are one to three
// mutually recursive declarations over sequences, alternation, forward
// and inverse steps, node checks, the quantifiers *, + and ?, and
// references. The statements chain a relationship with a path, apply it
// forward or inverse, or match relationships alone, leave the
// destination free or bind it, and take their id(v) IN sets from
// Sources.
func NewPathQuery(seed int64, maxN int) PathQuery {
	rng := rand.New(rand.NewSource(seed))
	g := Graph(rng, GraphKind(rng.Intn(int(numKinds))), 2+rng.Intn(maxN-1), DefaultLabels)
	for v := 0; v < g.NumVertices(); v++ {
		for _, l := range DefaultLabels[:2] {
			if rng.Intn(4) == 0 {
				g.AddVertexLabel(v, l)
			}
		}
	}
	names := patternNames[:1+rng.Intn(len(patternNames))]
	pq := PathQuery{G: g}
	for _, name := range names {
		pq.Decls = append(pq.Decls, cypher.NamedPathPattern{Name: name, Expr: pathExpr(rng, names, 3)})
	}
	for i := 0; i < queriesPerCase; i++ {
		pq.Add(randomMatch(rng, names, g.NumVertices()))
	}
	return pq
}

// Add appends a statement with the case's declarations; q's own
// PathPatterns are replaced.
func (pq *PathQuery) Add(q *cypher.Query) {
	q.PathPatterns = pq.Decls
	pq.Queries = append(pq.Queries, q)
	pq.Texts = append(pq.Texts, queryText(q))
}

// pathExpr draws a path-pattern expression over the declared names.
func pathExpr(rng *rand.Rand, names []string, depth int) cypher.PathExpr {
	if depth <= 0 || rng.Intn(3) == 0 {
		return pathAtom(rng, names)
	}
	sub := func() cypher.PathExpr { return pathExpr(rng, names, depth-1) }
	switch rng.Intn(6) {
	case 0, 1:
		parts := make([]cypher.PathExpr, 2+rng.Intn(2))
		for i := range parts {
			parts[i] = sub()
		}
		return cypher.PESeq{Parts: parts}
	case 2, 3:
		alts := make([]cypher.PathExpr, 2+rng.Intn(2))
		for i := range alts {
			alts[i] = sub()
		}
		return cypher.PEAlt{Alts: alts}
	case 4:
		if rng.Intn(2) == 0 {
			return cypher.PEStar{Sub: sub()}
		}
		return cypher.PEPlus{Sub: sub()}
	default:
		return cypher.PEOpt{Sub: sub()}
	}
}

// pathAtom draws a relationship step (forward, <:l, or :l_r), a node
// check whose label is also an edge label, or a reference.
func pathAtom(rng *rand.Rand, names []string) cypher.PathExpr {
	l := DefaultLabels[rng.Intn(len(DefaultLabels))]
	switch rng.Intn(8) {
	case 0, 1, 2:
		return cypher.PERel{Type: l}
	case 3:
		return cypher.PERel{Type: l, Inverse: true}
	case 4:
		return cypher.PERel{Type: l + "_r"}
	case 5:
		if rng.Intn(4) == 0 {
			return cypher.PENode{}
		}
		return cypher.PENode{Labels: []string{l}}
	default:
		return cypher.PERef{Name: names[rng.Intn(len(names))]}
	}
}

// randomMatch draws one MATCH statement: (v)-/ e /->(to), applied
// forward or inverse, optionally chained after or before a relationship
// through (m); or a relationship alone, or two through a labeled (m). to
// may carry a label, be v itself, or be pinned by id. It returns the
// bindings, or counts them: count(to) or count(*) alone, or count(to)
// grouped by v.
func randomMatch(rng *rand.Rand, names []string, n int) *cypher.Query {
	var e cypher.PathExpr = cypher.PERef{Name: names[rng.Intn(len(names))]}
	switch rng.Intn(5) {
	case 0, 1:
		e = pathExpr(rng, names, 2)
	case 2: // a reference as one alternative, the shape Algorithm 8 must reach
		e = cypher.PEAlt{Alts: []cypher.PathExpr{e, pathExpr(rng, names, 1)}}
	}
	path := cypher.PathApply{Expr: e, Inverse: rng.Intn(3) == 0}
	v := cypher.NodePattern{Var: "v"}
	to := cypher.NodePattern{Var: "to"}
	if rng.Intn(4) == 0 {
		to.Labels = []string{[]string{"a", "x"}[rng.Intn(2)]}
	}
	q := &cypher.Query{}
	ret := []cypher.ReturnItem{{Var: "v"}, {Var: "to"}}
	switch rng.Intn(5) {
	case 0: // a cycle: the destination is the source itself
		to = v
		ret = ret[:1]
	case 1: // a pinned destination: the planner starts from it
		q.Where = cypher.IDCompare{Var: "to", ID: int64(rng.Intn(n))}
	}
	pat := cypher.Pattern{Nodes: []cypher.NodePattern{v, to}, Connections: []cypher.Connection{path}}
	switch rng.Intn(6) {
	case 0:
		pat.Nodes = []cypher.NodePattern{v, {Var: "m"}, to}
		pat.Connections = []cypher.Connection{randomRel(rng), path}
	case 1:
		pat.Nodes = []cypher.NodePattern{v, {Var: "m"}, to}
		pat.Connections = []cypher.Connection{path, randomRel(rng)}
	case 2: // relationships only
		pat.Connections = []cypher.Connection{randomRel(rng)}
	case 3: // two relationships through a labeled middle node
		m := cypher.NodePattern{Var: "m", Labels: []string{DefaultLabels[rng.Intn(2)]}}
		pat.Nodes = []cypher.NodePattern{v, m, to}
		pat.Connections = []cypher.Connection{randomRel(rng), randomRel(rng)}
	}
	q.Match = &cypher.MatchClause{Patterns: []cypher.Pattern{pat}}
	if src := Sources(rng, n); len(src) > 0 {
		ids := make([]int64, len(src))
		for i, s := range src {
			ids[i] = int64(s)
		}
		in := cypher.IDIn{Var: "v", IDs: ids}
		if q.Where == nil {
			q.Where = in
		} else {
			q.Where = cypher.AndExpr{Left: in, Right: q.Where}
		}
	}
	switch last := ret[len(ret)-1].Var; rng.Intn(6) {
	case 0:
		ret = []cypher.ReturnItem{{Var: last, Count: true}}
	case 1:
		ret = []cypher.ReturnItem{{Var: "*", Count: true}}
	case 2: // grouped by the source
		ret = []cypher.ReturnItem{{Var: "v"}, {Var: last, Count: true}}
	}
	q.Return = &cypher.ReturnClause{Items: ret}
	return q
}

// randomRel draws a relationship pattern: untyped (any label), one type
// or an alternation of two, each type possibly spelled inverse (:l_r),
// pointing either way.
func randomRel(rng *rand.Rand) cypher.RelPattern {
	var r cypher.RelPattern
	for range rng.Intn(3) {
		l := DefaultLabels[rng.Intn(len(DefaultLabels))]
		if rng.Intn(4) == 0 {
			l += "_r"
		}
		r.Types = append(r.Types, l)
	}
	r.Inverse = rng.Intn(3) == 0
	return r
}

// queryText renders a query AST as the statement the parser reads: its
// PATH PATTERN declarations, then one MATCH/WHERE/RETURN block. It
// covers the AST shapes NewPathQuery produces.
func queryText(q *cypher.Query) string {
	var b strings.Builder
	for _, d := range q.PathPatterns {
		fmt.Fprintf(&b, "PATH PATTERN %s = ()-/ %s /->() ", d.Name, d.Expr)
	}
	b.WriteString("MATCH ")
	for i, pat := range q.Match.Patterns {
		if i > 0 {
			b.WriteString(", ")
		}
		for j, n := range pat.Nodes {
			if j > 0 {
				b.WriteString(connText(pat.Connections[j-1]))
			}
			b.WriteString("(" + n.Var)
			for _, l := range n.Labels {
				b.WriteString(":" + l)
			}
			b.WriteString(")")
		}
	}
	if q.Where != nil {
		b.WriteString(" WHERE " + whereText(q.Where))
	}
	b.WriteString(" RETURN ")
	for i, it := range q.Return.Items {
		if i > 0 {
			b.WriteString(", ")
		}
		if it.Count {
			b.WriteString("count(" + it.Var + ")")
		} else {
			b.WriteString(it.Var)
		}
	}
	return b.String()
}

func connText(c cypher.Connection) string {
	switch v := c.(type) {
	case cypher.PathApply:
		if v.Inverse {
			return "<-/ " + v.Expr.String() + " /-"
		}
		return "-/ " + v.Expr.String() + " /->"
	case cypher.RelPattern:
		body := ""
		if len(v.Types) > 0 {
			body = "[:" + strings.Join(v.Types, "|") + "]"
		}
		if v.Inverse {
			return "<-" + body + "-"
		}
		return "-" + body + "->"
	default:
		panic(fmt.Sprintf("gen: no text for connection %T", c))
	}
}

func whereText(e cypher.Expr) string {
	switch v := e.(type) {
	case cypher.AndExpr:
		return whereText(v.Left) + " AND " + whereText(v.Right)
	case cypher.IDCompare:
		return fmt.Sprintf("id(%s) = %d", v.Var, v.ID)
	case cypher.IDIn:
		ids := make([]string, len(v.IDs))
		for i, id := range v.IDs {
			ids[i] = fmt.Sprint(id)
		}
		return fmt.Sprintf("id(%s) IN [%s]", v.Var, strings.Join(ids, ", "))
	default:
		panic(fmt.Sprintf("gen: no text for predicate %T", e))
	}
}
