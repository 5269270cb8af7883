package main

import (
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// writeFixtures materializes a small graph and grammar on disk.
func writeFixtures(t *testing.T) (graphPath, grammarPath string) {
	t.Helper()
	dir := t.TempDir()
	graphPath = filepath.Join(dir, "g.txt")
	grammarPath = filepath.Join(dir, "q.txt")
	// Two cycles sharing vertex 0 (2 a-edges, 3 b-edges).
	graphSrc := "order 4\n0 a 1\n1 a 0\n0 b 2\n2 b 3\n3 b 0\n"
	if err := os.WriteFile(graphPath, []byte(graphSrc), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(grammarPath, []byte("S -> a S b | a b\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	return graphPath, grammarPath
}

func runCLI(t *testing.T, args ...string) (string, error) {
	t.Helper()
	var out strings.Builder
	err := run(args, &out)
	return out.String(), err
}

func TestCLIAlgorithmsAgree(t *testing.T) {
	g, q := writeFixtures(t)
	var results []string
	for _, algo := range []string{"allpairs", "seminaive", "singlepath"} {
		out, err := runCLI(t, "-graph", g, "-grammar", q, "-algo", algo)
		if err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		// Normalize away the header lines (the graph summary and the
		// per-algorithm stats line), keep the pair lines.
		var kept []string
		for _, l := range strings.Split(strings.TrimSpace(out), "\n") {
			if strings.HasPrefix(l, "graph:") || strings.HasPrefix(l, "algorithm:") {
				continue
			}
			kept = append(kept, l)
		}
		results = append(results, strings.Join(kept, "\n"))
	}
	for i := 1; i < len(results); i++ {
		if results[i] != results[0] {
			t.Fatalf("algorithm output %d differs:\n%s\nvs\n%s", i, results[i], results[0])
		}
	}
}

func TestCLIMultiSource(t *testing.T) {
	g, q := writeFixtures(t)
	for _, algo := range []string{"ms", "smart", "mspath"} {
		out, err := runCLI(t, "-graph", g, "-grammar", q, "-algo", algo, "-src", "0")
		if err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		if !strings.Contains(out, "0 -> 0") {
			t.Fatalf("%s: missing pair (0,0):\n%s", algo, out)
		}
		if strings.Contains(out, "1 -> ") {
			t.Fatalf("%s: leaked non-source rows:\n%s", algo, out)
		}
	}
}

// TestCLIWorkCharged runs every algorithm on the paper's Figure 1
// example: each must charge the governor for the entries it produces,
// since a run that reports work 0 is one no -budget can stop.
func TestCLIWorkCharged(t *testing.T) {
	g := filepath.Join("..", "..", "testdata", "example_graph.txt")
	q := filepath.Join("..", "..", "queries", "cnd.txt")
	for _, algo := range []string{"allpairs", "seminaive", "ms", "smart", "singlepath", "mspath"} {
		args := []string{"-graph", g, "-grammar", q, "-algo", algo}
		if algo == "ms" || algo == "smart" || algo == "mspath" {
			args = append(args, "-src", "3,4")
		}
		out, err := runCLI(t, args...)
		if err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		_, stats, _ := strings.Cut(out, "work: ")
		stats, _, _ = strings.Cut(stats, "\n")
		if work, err := strconv.Atoi(stats); err != nil || work <= 0 {
			t.Errorf("%s: work %q, want > 0:\n%s", algo, stats, out)
		}
	}
}

func TestCLISinglePathWitnesses(t *testing.T) {
	g, q := writeFixtures(t)
	out, err := runCLI(t, "-graph", g, "-grammar", q, "-algo", "singlepath", "-paths")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "via a") {
		t.Fatalf("missing witness words:\n%s", out)
	}
}

func TestCLIErrors(t *testing.T) {
	g, q := writeFixtures(t)
	cases := [][]string{
		{},            // missing flags
		{"-graph", g}, // missing grammar
		{"-graph", g, "-grammar", q, "-algo", "nope"},
		{"-graph", g, "-grammar", q, "-algo", "ms"},    // ms without src
		{"-graph", g, "-grammar", q, "-src", "99"},     // bad vertex
		{"-graph", "/nonexistent", "-grammar", q},      // missing file
		{"-graph", g, "-grammar", q, "-algo", "smart"}, // smart without src
		{"-graph", g, "-grammar", q, "-src", "x"},      // non-numeric src
	}
	for i, args := range cases {
		if _, err := runCLI(t, args...); err == nil {
			t.Errorf("case %d (%v): expected error", i, args)
		}
	}
}

func TestCLILimit(t *testing.T) {
	g, q := writeFixtures(t)
	out, err := runCLI(t, "-graph", g, "-grammar", q, "-algo", "allpairs", "-limit", "1")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "more)") {
		t.Fatalf("limit did not truncate:\n%s", out)
	}
}
