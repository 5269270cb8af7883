package plan

import (
	"strings"
	"testing"

	"mscfpq/internal/cypher"
)

func TestExecuteProfiled(t *testing.T) {
	q, err := cypher.Parse(`MATCH (v:x)-[:a]->(u) RETURN v, u`)
	if err != nil {
		t.Fatal(err)
	}
	env := NewEnv(paperGraph(), nil, nil)
	p, err := Build(q, env)
	if err != nil {
		t.Fatal(err)
	}
	rs, entries, err := p.ExecuteProfiled()
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows()) != 1 {
		t.Fatalf("rows = %v", rs.Rows())
	}
	if len(entries) != 3 { // Project, CondTraverse, LabelScan
		t.Fatalf("entries = %d: %+v", len(entries), entries)
	}
	// The projection produces exactly the result rows.
	if entries[0].Records != 1 {
		t.Fatalf("project records = %d", entries[0].Records)
	}
	// The label scan produced the two x-labeled vertices.
	if entries[2].Records != 2 {
		t.Fatalf("scan records = %d", entries[2].Records)
	}
	// Inclusive time is monotone down the chain.
	if entries[0].Inclusive < entries[1].Inclusive || entries[1].Inclusive < entries[2].Inclusive {
		t.Fatalf("inclusive times not monotone: %+v", entries)
	}
	lines := RenderProfile(entries)
	if len(lines) != 3 || !strings.Contains(lines[0], "Records produced: 1") {
		t.Fatalf("rendered = %v", lines)
	}
}

func TestExecuteProfiledWithPathPattern(t *testing.T) {
	q, err := cypher.Parse(`
		PATH PATTERN S = ()-/ [:c ~S :d] | [:c (:y) :d] /->()
		MATCH (v)-/ ~S /->(to)
		RETURN v, to`)
	if err != nil {
		t.Fatal(err)
	}
	env := NewEnv(paperGraph(), nil, nil)
	p, err := Build(q, env)
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
	found := false
	for _, e := range entries {
		if strings.Contains(e.Op, "CFPQTraverse") && e.Records == 2 {
			found = true
		}
	}
	if !found {
		t.Fatalf("missing CFPQTraverse entry: %+v", entries)
	}
}
