package main

import (
	"flag"
	"io"
	"log"
	"os"
	"path/filepath"
	"testing"
)

func silentLogger() *log.Logger { return log.New(io.Discard, "", 0) }

func TestBuildDBLoadAndSeed(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "g.txt")
	if err := os.WriteFile(path, []byte("0 a 1\n1 a 2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	db, err := buildDB("", []string{"mine=" + path}, []string{"core@0.1"}, silentLogger())
	if err != nil {
		t.Fatal(err)
	}
	names := db.List()
	if len(names) != 2 || names[0] != "core" || names[1] != "mine" {
		t.Fatalf("graphs = %v", names)
	}
	s, err := db.Get("mine")
	if err != nil || !s.Graph().HasEdge(0, "a", 1) {
		t.Fatalf("loaded graph wrong: %v", err)
	}
}

func TestBuildDBErrors(t *testing.T) {
	cases := []struct{ loads, seeds []string }{
		{loads: []string{"noequals"}},
		{loads: []string{"g=/nonexistent"}},
		{seeds: []string{"unknown-graph"}},
		{seeds: []string{"core@0"}},
		{seeds: []string{"core@abc"}},
	}
	for i, c := range cases {
		if _, err := buildDB("", c.loads, c.seeds, silentLogger()); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

func TestBuildDBDurable(t *testing.T) {
	dir := t.TempDir()
	db, err := buildDB(dir, nil, []string{"core@0.1"}, silentLogger())
	if err != nil {
		t.Fatal(err)
	}
	if !db.Durable() || db.DataDir() != dir {
		t.Fatal("data-dir database is not durable")
	}
	// Journaled work survives a close/reopen cycle; a snapshot captures
	// the full image, seeded graphs included.
	if _, err := db.Query("g", `CREATE (a:N)-[:e]->(b:N)`); err != nil {
		t.Fatal(err)
	}
	if err := db.Save(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2, err := buildDB(dir, nil, nil, silentLogger())
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if _, err := db2.Get("g"); err != nil {
		t.Fatalf("created graph not recovered: %v", err)
	}
	if _, err := db2.Get("core"); err != nil {
		t.Fatalf("snapshotted seed graph not recovered: %v", err)
	}
}

func TestListFlag(t *testing.T) {
	var l listFlag
	if err := l.Set("a"); err != nil {
		t.Fatal(err)
	}
	if err := l.Set("b"); err != nil {
		t.Fatal(err)
	}
	if l.String() != "a,b" || len(l) != 2 {
		t.Fatalf("listFlag = %v", l)
	}
}

// TestIgnoredWindowFlagStillParses keeps the command line the wire
// benchmark starts the server with valid: -batch-window does nothing,
// but rejecting it would fail every benchmark run.
func TestIgnoredWindowFlagStillParses(t *testing.T) {
	if err := flag.CommandLine.Parse([]string{"-batch-window", "500us"}); err != nil {
		t.Fatal(err)
	}
	if got := flag.Lookup("batch-window").Value.String(); got != "500µs" {
		t.Fatalf("-batch-window = %s, want 500µs", got)
	}
}
