package difftest

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"sync"

	"mscfpq/internal/cypher"
	"mscfpq/internal/gdb"
	"mscfpq/internal/gen"
	"mscfpq/internal/graph"
	"mscfpq/internal/oracle"
)

// CheckQuery sends every statement of the case through the whole query
// path — the result cache, parse, plan, PATH PATTERN compilation, the
// path-pattern index, the traverse batches — and compares each reply
// with the oracle: projected rows as sets, count values exactly. All
// statements go to one database store, so the ones that declare the
// same patterns share its path-pattern context and index, as they do on
// a server. Each statement is sent twice, and the second send must be a
// cache hit. Then one CREATE (createText) writes a new version, and
// every statement is checked again against the oracle over the new
// version's graph, so a cached answer the write made stale shows.
func CheckQuery(pq gen.PathQuery) error {
	_, err := checkQuery(pq)
	return err
}

// checkQuery is CheckQuery; it also reports how many statements the
// CREATE changed the oracle's answer of.
func checkQuery(pq gen.PathQuery) (changed int, err error) {
	db := newQueryDB(pq.G)
	before := make([][][]int64, len(pq.Queries))
	for i := range pq.Queries {
		if before[i], err = checkCached(db, pq.G, pq, i); err != nil {
			return 0, err
		}
	}
	create := createText(pq.G)
	if _, err := db.Query("g", create); err != nil {
		return 0, fmt.Errorf("%s: %v", create, err)
	}
	s, err := db.Get("g")
	if err != nil {
		return 0, err
	}
	g := s.Snapshot().Graph()
	for i := range pq.Queries {
		after, err := checkCached(db, g, pq, i)
		if err != nil {
			return 0, fmt.Errorf("after %s: %w", create, err)
		}
		if !reflect.DeepEqual(after, before[i]) {
			changed++
		}
	}
	return changed, nil
}

// newQueryDB is a database serving g as "g" with gsql-server's default
// cache budget, so statements go through the result cache it serves.
func newQueryDB(g *graph.Graph) *gdb.DB {
	db := gdb.New()
	db.SetPolicy(gdb.Policy{CacheMaxBytes: 64 << 20})
	db.AddGraph("g", g)
	return db
}

// checkCached sends statement i to db twice, checking both replies
// against the oracle over g, the graph db serves; the second send must
// count a cache hit. It returns the oracle's answer.
func checkCached(db *gdb.DB, g *graph.Graph, pq gen.PathQuery, i int) ([][]int64, error) {
	if _, err := checkStatement(db, g, pq, i); err != nil {
		return nil, err
	}
	hits := db.Cache().Stats().Hits
	want, err := checkStatement(db, g, pq, i)
	if err != nil {
		return nil, fmt.Errorf("second send: %w", err)
	}
	if db.Cache().Stats().Hits == hits {
		return nil, fmt.Errorf("%s: the second send missed the cache", pq.Texts[i])
	}
	return want, nil
}

// createText is a CREATE of one new vertex that carries every vertex
// label of g and a self-loop of each of g's edge labels. It links no old
// vertex, so an answer for old sources keeps (its cached entry may
// revalidate), while one whose sources are free gains the new vertex.
func createText(g *graph.Graph) string {
	var b strings.Builder
	b.WriteString("CREATE (w")
	for _, l := range g.VertexLabels() {
		b.WriteString(":" + l)
	}
	b.WriteString(")")
	for _, l := range g.EdgeLabels() {
		b.WriteString("-[:" + l + "]->(w)")
	}
	return b.String()
}

// CheckQueryConcurrent is CheckQuery's first pass with every statement
// sent from its own goroutine, reps times, to the one store: concurrent
// statements then share its path-pattern index while each grows its
// own rules, and race their cache fills against each other's hits.
func CheckQueryConcurrent(pq gen.PathQuery, reps int) error {
	db := newQueryDB(pq.G)
	var wg sync.WaitGroup
	errs := make(chan error, len(pq.Queries))
	for i := range pq.Queries {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for r := 0; r < reps; r++ {
				if _, err := checkStatement(db, pq.G, pq, i); err != nil {
					errs <- err
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	return <-errs
}

// checkStatement sends statement i of the case to db and compares the
// reply with the oracle's over g, the graph db serves. It returns the
// oracle's answer.
func checkStatement(db *gdb.DB, g *graph.Graph, pq gen.PathQuery, i int) ([][]int64, error) {
	q, text := pq.Queries[i], pq.Texts[i]
	res, err := db.Query("g", text)
	if err != nil {
		return nil, fmt.Errorf("%s: %v", text, err)
	}
	want, err := matchRows(g, q)
	if err != nil {
		return nil, fmt.Errorf("%s: oracle: %v", text, err)
	}
	got := res.Rows
	if !q.Return.Items[0].Count {
		got = canonicalRows(got)
	}
	if len(got) != len(want) || (len(got) > 0 && !reflect.DeepEqual(got, want)) {
		return nil, fmt.Errorf("%s:\n got  %v\n want %v", text, got, want)
	}
	return want, nil
}

// matchRows is the reply the oracle expects: every binding of the
// pattern's nodes that the connections' relations, the node labels and
// the WHERE clause admit (one vertex per node position; a repeated
// variable binds one vertex), projected on the RETURN variables as a
// sorted set; with counts among the items, each row of that set has
// them set to how many bindings project onto it (one row over all the
// bindings for counts alone, none without bindings). It covers one
// linear pattern.
func matchRows(g *graph.Graph, q *cypher.Query) ([][]int64, error) {
	if len(q.Match.Patterns) != 1 {
		return nil, fmt.Errorf("%d patterns, want 1", len(q.Match.Patterns))
	}
	pat := q.Match.Patterns[0]
	succ := make([][][]int, len(pat.Connections))
	for k, c := range pat.Connections {
		pairs, err := connectionPairs(g, q.PathPatterns, c)
		if err != nil {
			return nil, err
		}
		succ[k] = make([][]int, g.NumVertices())
		for _, p := range pairs {
			succ[k][p[0]] = append(succ[k][p[0]], p[1])
		}
	}
	pos := map[string]int{} // variable -> its first node position
	for k, n := range pat.Nodes {
		if _, ok := pos[n.Var]; !ok && n.Var != "" {
			pos[n.Var] = k
		}
	}
	where := func(b []int) (bool, error) { return true, nil }
	if q.Where != nil {
		where = func(b []int) (bool, error) { return wherePred(q.Where, pos, b) }
	}

	var bindings [][]int
	b := make([]int, len(pat.Nodes))
	var extend func(k, u int) error
	extend = func(k, u int) error {
		n := pat.Nodes[k]
		for _, l := range n.Labels {
			if !g.HasVertexLabel(u, l) {
				return nil
			}
		}
		if first, ok := pos[n.Var]; ok && first < k && b[first] != u {
			return nil
		}
		b[k] = u
		if k+1 == len(pat.Nodes) {
			ok, err := where(b)
			if ok {
				bindings = append(bindings, append([]int(nil), b...))
			}
			return err
		}
		for _, next := range succ[k][u] {
			if err := extend(k+1, next); err != nil {
				return err
			}
		}
		return nil
	}
	for u := 0; u < g.NumVertices(); u++ {
		if err := extend(0, u); err != nil {
			return nil, err
		}
	}

	items := q.Return.Items
	var rows [][]int64
	counts := map[string]int64{} // a group's count, by its variables' row
	for _, bind := range bindings {
		var row []int64
		for _, it := range items {
			if it.Count {
				row = append(row, 0)
				continue
			}
			k, ok := pos[it.Var]
			if !ok {
				return nil, fmt.Errorf("RETURN item %+v", it)
			}
			row = append(row, int64(bind[k]))
		}
		key := fmt.Sprint(row)
		if counts[key] == 0 {
			rows = append(rows, row)
		}
		counts[key]++
	}
	rows = canonicalRows(rows)
	for _, row := range rows {
		n := counts[fmt.Sprint(row)]
		for i, it := range items {
			if it.Count {
				row[i] = n
			}
		}
	}
	return rows, nil
}

// connectionPairs is the relation a connection walks, by the oracle's
// path-pattern reading, reversed for a right-to-left connection. A
// relationship is the one-step path that alternates its types, or every
// edge label of g when untyped, so :l_r reads as l backwards there too.
func connectionPairs(g *graph.Graph, decls []cypher.NamedPathPattern, c cypher.Connection) ([][2]int, error) {
	var p cypher.PathApply
	switch v := c.(type) {
	case cypher.RelPattern:
		types := v.Types
		if len(types) == 0 {
			types = g.EdgeLabels()
		}
		steps := make([]cypher.PathExpr, len(types))
		for i, t := range types {
			steps[i] = cypher.PERel{Type: t}
		}
		p, decls = cypher.PathApply{Expr: cypher.PEAlt{Alts: steps}, Inverse: v.Inverse}, nil
	case cypher.PathApply:
		p = v
	default:
		return nil, fmt.Errorf("unsupported connection %T", c)
	}
	pairs, err := oracle.Pattern(g, decls, p.Expr)
	if err != nil {
		return nil, err
	}
	if p.Inverse {
		for i, q := range pairs {
			pairs[i] = [2]int{q[1], q[0]}
		}
	}
	oracle.SortPairs(pairs)
	return pairs, nil
}

// wherePred evaluates the id predicates of a WHERE clause on a binding.
func wherePred(e cypher.Expr, pos map[string]int, b []int) (bool, error) {
	id := func(v string) (int64, error) {
		k, ok := pos[v]
		if !ok {
			return 0, fmt.Errorf("WHERE on unknown variable %q", v)
		}
		return int64(b[k]), nil
	}
	switch v := e.(type) {
	case cypher.AndExpr:
		l, err := wherePred(v.Left, pos, b)
		if err != nil || !l {
			return false, err
		}
		return wherePred(v.Right, pos, b)
	case cypher.IDCompare:
		got, err := id(v.Var)
		return got == v.ID, err
	case cypher.IDIn:
		got, err := id(v.Var)
		for _, want := range v.IDs {
			if got == want {
				return true, err
			}
		}
		return false, err
	default:
		return false, fmt.Errorf("unsupported predicate %T", e)
	}
}

// canonicalRows sorts rows and drops duplicates: the set a projection
// denotes.
func canonicalRows(rows [][]int64) [][]int64 {
	out := append([][]int64(nil), rows...)
	sort.Slice(out, func(i, j int) bool {
		for k := range out[i] {
			if out[i][k] != out[j][k] {
				return out[i][k] < out[j][k]
			}
		}
		return false
	})
	uniq := out[:0]
	for _, r := range out {
		if len(uniq) == 0 || !reflect.DeepEqual(r, uniq[len(uniq)-1]) {
			uniq = append(uniq, r)
		}
	}
	return uniq
}
