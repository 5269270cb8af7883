package gdb

import (
	"strings"
	"testing"

	"mscfpq/internal/cypher"
	"mscfpq/internal/dataset"
	"mscfpq/internal/graph"
	"mscfpq/internal/store"
)

func TestStoreRoundTrip(t *testing.T) {
	g := graph.New(3)
	g.AddEdge(0, "a", 1)
	g.AddEdge(1, "b", 2)
	g.AddVertexLabel(0, "Person")
	s := NewGraphStore(g)
	if _, err := s.st.Update(func(tx *store.Tx) error {
		tx.SetProp(0, "name", cypher.Value{Str: "Ann O'Hara with spaces"})
		tx.SetProp(0, "age", cypher.Value{Int: 41, IsInt: true})
		tx.SetProp(2, "name", cypher.Value{Str: "multi\nline"})
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	var b strings.Builder
	if err := WriteStore(&b, s); err != nil {
		t.Fatal(err)
	}
	back, err := ReadStore(strings.NewReader(b.String()))
	if err != nil {
		t.Fatalf("ReadStore: %v\ndump:\n%s", err, b.String())
	}
	if !back.Graph().HasEdge(0, "a", 1) || !back.Graph().HasVertexLabel(0, "Person") {
		t.Fatal("graph content lost")
	}
	for _, check := range []struct {
		v   int
		key string
		val cypher.Value
	}{
		{0, "name", cypher.Value{Str: "Ann O'Hara with spaces"}},
		{0, "age", cypher.Value{Int: 41, IsInt: true}},
		{2, "name", cypher.Value{Str: "multi\nline"}},
	} {
		if !back.PropEquals(check.v, check.key, check.val) {
			t.Fatalf("prop (%d,%s) lost", check.v, check.key)
		}
	}
}

func TestDumpRestoreThroughDB(t *testing.T) {
	db := New()
	if _, err := db.Query("g", `CREATE (a:N {name: 'x'})-[:e]->(b:N)`); err != nil {
		t.Fatal(err)
	}
	dump, err := db.Dump("g")
	if err != nil {
		t.Fatal(err)
	}
	db2 := New()
	if err := db2.Restore("copy", dump); err != nil {
		t.Fatal(err)
	}
	res, err := db2.Query("copy", `MATCH (v:N)-[:e]->(u) WHERE v.name = 'x' RETURN v, u`)
	if err != nil || len(res.Rows) != 1 {
		t.Fatalf("restored query: %v rows=%v", err, res)
	}
	if _, err := db.Dump("missing"); err == nil {
		t.Fatal("expected error for missing graph")
	}
}

func TestReadStoreErrors(t *testing.T) {
	cases := []string{
		"prop x name s \"v\"",                   // bad vertex
		"order 2\nprop 5 name s \"v\"",          // out of range
		"order 2\nprop 0 name i abc",            // bad int
		"order 2\nprop 0 name s unquoted space", // bad quoting
		"order 2\nprop 0 name z 1",              // unknown kind
		"order 2\nprop 0 name",                  // short line
		"0 a",                                   // bad graph body
	}
	for _, src := range cases {
		if _, err := ReadStore(strings.NewReader(src)); err == nil {
			t.Errorf("ReadStore(%q): expected error", src)
		}
	}
}

// TestReadStoreNamesDumpLines: an error names the line of the dump,
// counting prop lines, and a prop line past graph.Read's own 16 MiB
// line bound still round-trips.
func TestReadStoreNamesDumpLines(t *testing.T) {
	for _, c := range []struct{ dump, want string }{
		{"order 2\nprop 0 k i 1\nprop 1 k i 2\n0 a 1\n0 a\n", "line 5"},     // bad edge after props
		{"order 2\n0 a 1\nprop 9 k i 1\n", "line 3: bad prop vertex"},       // vertex past the graph
		{"order 2\n0 a 1\n\nprop 0 k z 1\n1 b 0\n", "line 4: unknown prop"}, // bad kind
	} {
		_, err := ReadStore(strings.NewReader(c.dump))
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("ReadStore(%q) = %v, want an error naming %q", c.dump, err, c.want)
		}
	}

	long := strings.Repeat("x\"y", 6<<20) // quoted, 24 MiB on its line
	s := NewGraphStore(graph.New(2))
	if _, err := s.st.Update(func(tx *store.Tx) error {
		tx.SetProp(1, "blob", cypher.Value{Str: long})
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := WriteStore(&b, s); err != nil {
		t.Fatal(err)
	}
	back, err := ReadStore(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	if got := back.Snapshot().Props(1)["blob"]; got.Str != long {
		t.Fatalf("a %d-byte prop came back as %d bytes", len(long), len(got.Str))
	}
}

// BenchmarkReadStore prints what GRAPH.RESTORE's parse costs in
// process: ReadStore of a go-hierarchy@0.25 dump, in bytes and
// allocations per restore.
func BenchmarkReadStore(b *testing.B) {
	spec, err := dataset.ByName("go-hierarchy")
	if err != nil {
		b.Fatal(err)
	}
	var dump strings.Builder
	if err := WriteStore(&dump, NewGraphStore(dataset.Generate(dataset.Scaled(spec, 0.25)))); err != nil {
		b.Fatal(err)
	}
	text := dump.String()
	b.SetBytes(int64(len(text)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ReadStore(strings.NewReader(text)); err != nil {
			b.Fatal(err)
		}
	}
}

func TestDumpDeterministic(t *testing.T) {
	db := New()
	if _, err := db.Query("g", `CREATE (a:N {z: 1, a: 2, m: 'x'})`); err != nil {
		t.Fatal(err)
	}
	d1, err := db.Dump("g")
	if err != nil {
		t.Fatal(err)
	}
	d2, _ := db.Dump("g")
	if d1 != d2 {
		t.Fatal("dump not deterministic")
	}
}
