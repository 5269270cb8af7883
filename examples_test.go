package mscfpq

// Every example is built and executed as part of the test suite, so the
// documented entry points cannot rot. Skipped under -short.

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func runExample(t *testing.T, name string, wantOutput ...string) {
	t.Helper()
	if testing.Short() {
		t.Skip("examples skipped in -short mode")
	}
	bin := filepath.Join(t.TempDir(), name)
	build := exec.Command("go", "build", "-o", bin, "./examples/"+name)
	build.Dir = moduleRoot(t)
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	cmd := exec.Command(bin)
	cmd.Dir = build.Dir
	done := make(chan struct{})
	var out []byte
	var err error
	go func() {
		out, err = cmd.CombinedOutput()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(3 * time.Minute):
		_ = cmd.Process.Kill()
		t.Fatal("example timed out")
	}
	if err != nil {
		t.Fatalf("run: %v\n%s", err, out)
	}
	for _, want := range wantOutput {
		if !strings.Contains(string(out), want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

func moduleRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	return dir
}

func TestExampleQuickstart(t *testing.T) {
	runExample(t, "quickstart", "pairs reachable from vertex 0", "witness for (0,0)")
}

func TestExampleOntology(t *testing.T) {
	runExample(t, "ontology", "core analog", "same-generation pairs", "warm batch")
}

func TestExampleProvenance(t *testing.T) {
	runExample(t, "provenance", "A/clean     ~ B/clean", "library agrees: true")
}

func TestExampleFullstack(t *testing.T) {
	runExample(t, "fullstack", "execution plan", "a^n b^n pairs", "    execute: ", "Vertices: 4")
}

func TestExampleRPQEngines(t *testing.T) {
	runExample(t, "rpqengines", "pairs via the CFPQ driver", "aborted with ErrBudget")
}
