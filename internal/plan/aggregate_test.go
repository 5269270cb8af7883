package plan

import (
	"reflect"
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
	rs, entries, err := p.ExecuteProfiled()
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows()) != 2 {
		t.Fatalf("rows = %v", rs.Rows())
	}
	// Paginate, Sort, Aggregate must all appear in the profile.
	joined := ""
	for _, e := range entries {
		joined += e.Op + "\n"
	}
	for _, want := range []string{"Paginate", "Sort", "Aggregate"} {
		if !contains(joined, want) {
			t.Fatalf("profile missing %q:\n%s", want, joined)
		}
	}
}
