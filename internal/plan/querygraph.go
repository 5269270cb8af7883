package plan

import (
	"fmt"
	"strings"

	"mscfpq/internal/cypher"
)

// QueryGraph is the intermediate representation the paper's Section
// 4.3.1 describes (Figure 10): pattern nodes become query-graph nodes
// and connections — relationship or path patterns — become its edges.
// The planner linearizes it into chains before compiling each chain
// edge into the grammar of its traverse.
type QueryGraph struct {
	Nodes []QGNode
	Edges []QGEdge
}

// QGNode is one pattern node; anonymous nodes get synthetic names.
type QGNode struct {
	Name   string
	Labels []string
	Props  []cypher.Property
}

// QGEdge connects two query-graph nodes with the original pattern
// connection.
type QGEdge struct {
	From, To int // indices into Nodes
	Conn     cypher.Connection
}

// BuildQueryGraph folds the MATCH patterns into a query graph, merging
// nodes that share a variable name.
func BuildQueryGraph(m *cypher.MatchClause) (*QueryGraph, error) {
	if m == nil || len(m.Patterns) == 0 {
		return nil, fmt.Errorf("plan: empty MATCH clause")
	}
	qg := &QueryGraph{}
	byName := map[string]int{}
	anon := 0
	nodeIdx := func(n cypher.NodePattern) int {
		name := n.Var
		if name == "" {
			name = fmt.Sprintf("$anon%d", anon)
			anon++
		}
		if idx, ok := byName[name]; ok {
			// Merge label and property constraints of repeated vars.
			qg.Nodes[idx].Labels = append(qg.Nodes[idx].Labels, n.Labels...)
			qg.Nodes[idx].Props = append(qg.Nodes[idx].Props, n.Props...)
			return idx
		}
		idx := len(qg.Nodes)
		byName[name] = idx
		qg.Nodes = append(qg.Nodes, QGNode{Name: name, Labels: n.Labels, Props: n.Props})
		return idx
	}
	for _, pat := range m.Patterns {
		if len(pat.Nodes) != len(pat.Connections)+1 {
			return nil, fmt.Errorf("plan: malformed pattern (%d nodes, %d connections)",
				len(pat.Nodes), len(pat.Connections))
		}
		prev := nodeIdx(pat.Nodes[0])
		for i, conn := range pat.Connections {
			next := nodeIdx(pat.Nodes[i+1])
			qg.Edges = append(qg.Edges, QGEdge{From: prev, To: next, Conn: conn})
			prev = next
		}
	}
	return qg, nil
}

// Chains splits the query graph back into linear traversal chains,
// mirroring the paper's "linearize then split into small paths" step:
// edges are emitted in input order, starting a new chain whenever an
// edge does not continue from the previous edge's destination.
func (qg *QueryGraph) Chains() [][]QGEdge {
	var chains [][]QGEdge
	var cur []QGEdge
	for _, e := range qg.Edges {
		if len(cur) > 0 && cur[len(cur)-1].To != e.From {
			chains = append(chains, cur)
			cur = nil
		}
		cur = append(cur, e)
	}
	if len(cur) > 0 {
		chains = append(chains, cur)
	}
	return chains
}

// String renders the query graph for debugging and EXPLAIN output.
func (qg *QueryGraph) String() string {
	var b strings.Builder
	b.WriteString("QueryGraph{")
	for i, n := range qg.Nodes {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(n.Name)
		for _, l := range n.Labels {
			b.WriteString(":" + l)
		}
	}
	b.WriteString(" | ")
	for i, e := range qg.Edges {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s->%s", qg.Nodes[e.From].Name, qg.Nodes[e.To].Name)
	}
	b.WriteString("}")
	return b.String()
}
