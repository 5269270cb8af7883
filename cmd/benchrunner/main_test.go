package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestBenchrunnerTable1Quick(t *testing.T) {
	var out strings.Builder
	err := run([]string{"-exp", "table1", "-quick", "-graphs", "core,pathways"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Table1", "core", "pathways", "#subClassOf"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("missing %q in:\n%s", want, out.String())
		}
	}
}

func TestBenchrunnerFiguresWithCSV(t *testing.T) {
	dir := t.TempDir()
	csvPath := filepath.Join(dir, "sweep.csv")
	var out strings.Builder
	err := run([]string{"-exp", "figures", "-quick", "-graphs", "core",
		"-chunks", "1,5", "-csv", csvPath}, &out)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "chunk_size") || !strings.Contains(string(data), "core") {
		t.Fatalf("csv content wrong:\n%s", data)
	}
	if !strings.Contains(out.String(), "Smart mean ms") {
		t.Fatalf("table output wrong:\n%s", out.String())
	}
}

func TestBenchrunnerErrors(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-exp", "nosuch"}, &out); err == nil {
		t.Fatal("expected error for unknown experiment")
	}
	if err := run([]string{"-chunks", "0"}, &out); err == nil {
		t.Fatal("expected error for bad chunk size")
	}
	if err := run([]string{"-exp", "table1", "-graphs", "unknown-graph"}, &out); err == nil {
		t.Fatal("expected error for unknown graph")
	}
	// The retired obs and cache experiments and the -json flag must fail
	// loudly, not run nothing.
	for _, args := range [][]string{{"-exp", "obs"}, {"-exp", "cache"}, {"-exp", "table1", "-json", "x"}} {
		if err := run(args, &out); err == nil {
			t.Fatalf("expected error for retired %q", args)
		}
	}
}
