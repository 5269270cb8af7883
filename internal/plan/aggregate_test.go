package plan

import (
	"reflect"
	"strings"
	"testing"
)

func TestCountStar(t *testing.T) {
	rs := runQuery(t, paperGraph(), `MATCH (v)-[:d]->(u) RETURN count(*)`)
	if len(rs.Rows()) != 1 || rs.Rows()[0][0] != 3 {
		t.Fatalf("count(*) = %v", rs.Rows())
	}
	if rs.Columns[0] != "count(*)" {
		t.Fatalf("column = %q", rs.Columns[0])
	}
}

func TestCountGrouped(t *testing.T) {
	// Out-degree over label b per source vertex: vertex 1 has two b-edges.
	rs := runQuery(t, paperGraph(), `MATCH (v)-[:b]->(u) RETURN v, count(u)`)
	if len(rs.Rows()) != 1 || rs.Rows()[0][0] != 1 || rs.Rows()[0][1] != 2 {
		t.Fatalf("grouped count = %v", rs.Rows())
	}
	// Degree per vertex over any edge.
	rs = runQuery(t, paperGraph(), `MATCH (v)-->(u) RETURN v, count(u) AS deg ORDER BY deg DESC, v`)
	if rs.Columns[1] != "deg" {
		t.Fatalf("columns = %v", rs.Columns)
	}
	// Vertex 1 has out-pairs {2,5} (a+b collapse on (1,2)), vertex 4 has
	// {3,5}, vertices 0,2,3,5 have one each.
	if rs.Rows()[0][1] != 2 {
		t.Fatalf("top degree = %v", rs.Rows())
	}
	// Descending by degree, ties ascending by v.
	var degs []int64
	for _, r := range rs.Rows() {
		degs = append(degs, r[1])
	}
	for i := 1; i < len(degs); i++ {
		if degs[i] > degs[i-1] {
			t.Fatalf("not sorted desc: %v", degs)
		}
	}
}

func TestCountEmptyInput(t *testing.T) {
	rs := runQuery(t, paperGraph(), `MATCH (v)-[:nosuch]->(u) RETURN count(*)`)
	// With no grouping keys and no rows, the aggregate yields no groups
	// (a defensible choice; SQL would return one row with 0).
	if len(rs.Rows()) != 0 {
		t.Fatalf("rows = %v", rs.Rows())
	}
}

func TestOrderByAscDesc(t *testing.T) {
	rs := runQuery(t, paperGraph(), `MATCH (v)-[:d]->(u) RETURN v, u ORDER BY v`)
	want := [][]int64{{2, 4}, {4, 5}, {5, 4}}
	if !reflect.DeepEqual(rs.Rows(), want) {
		t.Fatalf("rows = %v", rs.Rows())
	}
	rs = runQuery(t, paperGraph(), `MATCH (v)-[:d]->(u) RETURN v, u ORDER BY v DESC`)
	if rs.Rows()[0][0] != 5 || rs.Rows()[2][0] != 2 {
		t.Fatalf("desc rows = %v", rs.Rows())
	}
}

func TestSkipAndLimitAfterSort(t *testing.T) {
	rs := runQuery(t, paperGraph(), `MATCH (v)-[:d]->(u) RETURN v, u ORDER BY v SKIP 1 LIMIT 1`)
	want := [][]int64{{4, 5}}
	if !reflect.DeepEqual(rs.Rows(), want) {
		t.Fatalf("rows = %v", rs.Rows())
	}
	// Skip past the end.
	rs = runQuery(t, paperGraph(), `MATCH (v)-[:d]->(u) RETURN v SKIP 10`)
	if len(rs.Rows()) != 0 {
		t.Fatalf("rows = %v", rs.Rows())
	}
}

func TestOrderByUnknownColumn(t *testing.T) {
	q := mustParseQuery(t, `MATCH (v)-[:d]->(u) RETURN v ORDER BY nosuch`)
	if _, err := Build(q, NewEnv(paperGraph(), nil, nil)); err == nil {
		t.Fatal("expected error for unknown ORDER BY column")
	}
}

func TestCountUnknownVariable(t *testing.T) {
	q := mustParseQuery(t, `MATCH (v)-[:d]->(u) RETURN count(zz)`)
	if _, err := Build(q, NewEnv(paperGraph(), nil, nil)); err == nil {
		t.Fatal("expected error for unknown count variable")
	}
}

func TestProfiledAggregate(t *testing.T) {
	q := mustParseQuery(t, `MATCH (v)-->(u) RETURN v, count(u) ORDER BY v LIMIT 2`)
	p, err := Build(q, NewEnv(paperGraph(), nil, nil))
	if err != nil {
		t.Fatal(err)
	}
	// Paginate, Sort, Aggregate must all appear in the plan, in that
	// order from the root.
	out := p.Explain()
	if !contains(out, "Paginate") || !contains(out, "Sort") || !contains(out, "Aggregate") ||
		strings.Index(out, "Paginate") > strings.Index(out, "Sort") || strings.Index(out, "Sort") > strings.Index(out, "Aggregate") {
		t.Fatalf("explain:\n%s", out)
	}
	rs, err := p.Execute()
	if err != nil {
		t.Fatal(err)
	}
	// The two least sources: 0 reaches 1, and 1 reaches 2 and 5.
	expectRows(t, rs, [][]int64{{0, 1}, {1, 2}})
}

// countDecl is a same-generation pattern over paperGraph: S relates 3
// to 4 (c (:y) d) and 4 to 5 (c S d).
const countDecl = `PATH PATTERN S = ()-/ [:c ~S :d] | [:c (:y) :d] /->() `

// TestCountRowsPlanned: counts alone over a traverse with a free,
// unfiltered destination plan CountRows, which EXPLAIN names at the
// plan's root, and answer what counting the records would.
func TestCountRowsPlanned(t *testing.T) {
	for _, c := range []struct {
		text string
		want [][]int64
	}{
		{countDecl + `MATCH (v)-/ ~S /->(to) RETURN count(to)`, [][]int64{{2}}},
		{countDecl + `MATCH (v)-/ ~S /->(to) RETURN count(*), count(v)`, [][]int64{{2, 2}}},
		// m is 4 for v = 2 and v = 5: each record counts 4's two rows.
		{`MATCH (v)-[:d]->(m)-[:c|d]->(to) RETURN count(to)`, [][]int64{{5}}},
		{countDecl + `MATCH (v)-/ ~S /->(to) WHERE id(v) = 0 RETURN count(to)`, nil},
	} {
		p, err := Build(mustParseQuery(t, c.text), NewEnv(paperGraph(), nil, nil))
		if err != nil {
			t.Fatal(err)
		}
		if out := p.Explain(); !strings.HasPrefix(out, "CountRows(") || contains(out, "Aggregate") {
			t.Fatalf("%s: explain:\n%s", c.text, out)
		}
		rs, err := p.Execute()
		if err != nil {
			t.Fatal(err)
		}
		expectRows(t, rs, c.want)
	}
}

// TestCountRowsNotPlanned: a grouping column, a filter on the
// destination, or a destination bound before the traverse keeps
// Aggregate, which counts the records that survive.
func TestCountRowsNotPlanned(t *testing.T) {
	for _, c := range []struct {
		text string
		want [][]int64
	}{
		{countDecl + `MATCH (v)-/ ~S /->(to) RETURN v, count(to)`, [][]int64{{3, 1}, {4, 1}}},
		{countDecl + `MATCH (v)-/ ~S /->(to) WHERE id(v) IN [3, 4] AND id(to) IN [5] RETURN count(to)`, [][]int64{{1}}},
		{countDecl + `MATCH (v)-/ ~S /->(v) RETURN count(v)`, nil},
		{`MATCH (v)-[:d]->(to), (to)-[:d]->(v) RETURN count(*)`, [][]int64{{2}}},
	} {
		p, err := Build(mustParseQuery(t, c.text), NewEnv(paperGraph(), nil, nil))
		if err != nil {
			t.Fatal(err)
		}
		if out := p.Explain(); contains(out, "CountRows") || !contains(out, "Aggregate") {
			t.Fatalf("%s: explain:\n%s", c.text, out)
		}
		rs, err := p.Execute()
		if err != nil {
			t.Fatal(err)
		}
		expectRows(t, rs, c.want)
	}
}
