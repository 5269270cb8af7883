package main

import (
	"path/filepath"
	"strings"
	"testing"

	"mscfpq/internal/gdb"
	"mscfpq/internal/graph"
	"mscfpq/internal/resp"
)

// startServer runs an in-process server with a small seeded graph.
func startServer(t *testing.T) *resp.Client {
	t.Helper()
	db := gdb.New()
	g := graph.New(3)
	g.AddEdge(0, "a", 1)
	g.AddEdge(1, "a", 2)
	db.AddGraph("g", g)
	srv := resp.NewServer(db)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve()
	t.Cleanup(srv.Close)
	c, err := resp.Dial(addr.String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func runREPL(t *testing.T, c *resp.Client, script string) string {
	t.Helper()
	var out strings.Builder
	if err := repl(c, "g", strings.NewReader(script), &out); err != nil {
		t.Fatal(err)
	}
	return out.String()
}

func TestREPLQueryAndMeta(t *testing.T) {
	c := startServer(t)
	out := runREPL(t, c, `
ping
list
MATCH (v)-[:a]->(u) RETURN v, u
explain MATCH (v)-[:a]->(u) RETURN v
profile MATCH (v)-[:a]->(u) RETURN v
quit
`)
	for _, want := range []string{"PONG", "g\n", "0 | 1", "1 | 2", "CondTraverse", "Records produced"} {
		if !strings.Contains(out, want) {
			t.Fatalf("repl output missing %q:\n%s", want, out)
		}
	}
}

func TestREPLUseAndDelete(t *testing.T) {
	c := startServer(t)
	out := runREPL(t, c, `
use other
CREATE (a:N)-[:e]->(b:N)
MATCH (v:N)-[:e]->(u) RETURN v, u
delete other
use third
CREATE (a:N)
delete
list
`)
	if !strings.Contains(out, "0 | 1") {
		t.Fatalf("query on new graph failed:\n%s", out)
	}
	// A bare delete drops the graph `use` selected.
	if strings.Contains(out, "error:") || strings.Count(out, "OK") != 2 {
		t.Fatalf("delete failed:\n%s", out)
	}
	if strings.Contains(out, "other\n") || strings.Contains(out, "third\n") {
		t.Fatalf("list still names a deleted graph:\n%s", out)
	}
}

func TestREPLSave(t *testing.T) {
	dir := t.TempDir()
	db, err := gdb.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	srv := resp.NewServer(db)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve()
	t.Cleanup(srv.Close)
	c, err := resp.Dial(addr.String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	out := runREPL(t, c, `
CREATE (a:N)-[:e]->(b:N)
save
`)
	if !strings.Contains(out, "OK") {
		t.Fatalf("save failed:\n%s", out)
	}
	snaps, err := filepath.Glob(filepath.Join(dir, "snap-*.snap"))
	if err != nil || len(snaps) != 1 {
		t.Fatalf("snapshots after save = %v (%v)", snaps, err)
	}
}

func TestREPLLineContinuation(t *testing.T) {
	c := startServer(t)
	out := runREPL(t, c, `
PATH PATTERN P = ()-/ [:a]+ /->() \
MATCH (v)-/ ~P /->(u) \
WHERE id(v) = 0 \
RETURN v, u
quit
`)
	if !strings.Contains(out, "0 | 1") || !strings.Contains(out, "0 | 2") {
		t.Fatalf("continued query failed:\n%s", out)
	}
}

func TestREPLErrorsSurface(t *testing.T) {
	c := startServer(t)
	out := runREPL(t, c, `
MATCH (v RETURN v
delete missing
use
`)
	if strings.Count(out, "error:") < 2 || !strings.Contains(out, "usage: use") {
		t.Fatalf("errors not surfaced:\n%s", out)
	}
}
