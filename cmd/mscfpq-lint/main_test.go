package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// runLint invokes the driver against the testdata mini-module and
// returns (exit code, stdout, stderr).
func runLint(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	capture := func(name string) *os.File {
		f, err := os.CreateTemp(t.TempDir(), name)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	stdout, stderr := capture("stdout"), capture("stderr")
	code := run(args, stdout, stderr)
	read := func(f *os.File) string {
		b, err := os.ReadFile(f.Name())
		if err != nil {
			t.Fatal(err)
		}
		// Temp file; nothing to lose on a close failure.
		_ = f.Close()
		return string(b)
	}
	return code, read(stdout), read(stderr)
}

func fixtureRoot(t *testing.T) string {
	t.Helper()
	root, err := filepath.Abs(filepath.Join("testdata", "module"))
	if err != nil {
		t.Fatal(err)
	}
	return root
}

// TestJSONFindingsAndExitCode: the mini-module carries exactly one
// errdrop finding; -json must render it machine-readably and the
// process must exit 1.
func TestJSONFindingsAndExitCode(t *testing.T) {
	code, stdout, stderr := runLint(t, "-root", fixtureRoot(t), "-json")
	if code != 1 {
		t.Fatalf("exit = %d, want 1 (stderr: %s)", code, stderr)
	}
	var diags []jsonDiag
	if err := json.Unmarshal([]byte(stdout), &diags); err != nil {
		t.Fatalf("stdout is not a JSON diagnostic array: %v\n%s", err, stdout)
	}
	if len(diags) != 1 {
		t.Fatalf("findings = %d, want 1: %+v", len(diags), diags)
	}
	d := diags[0]
	if d.Analyzer != "errdrop" || filepath.ToSlash(d.File) != "internal/use/use.go" || d.Line == 0 {
		t.Fatalf("unexpected finding: %+v", d)
	}
	if !strings.Contains(d.Message, "discarded") {
		t.Fatalf("unexpected message: %s", d.Message)
	}
}

// TestCleanPackageExitsZero: an explicitly selected package with no
// findings exits 0 and prints nothing.
func TestCleanPackageExitsZero(t *testing.T) {
	code, stdout, stderr := runLint(t, "-root", fixtureRoot(t), "internal/graph")
	if code != 0 {
		t.Fatalf("exit = %d, want 0 (stderr: %s)", code, stderr)
	}
	if stdout != "" {
		t.Fatalf("clean run wrote to stdout: %s", stdout)
	}
}

// TestLoadErrorExitsTwo: an unloadable root is an internal error, not
// a finding.
func TestLoadErrorExitsTwo(t *testing.T) {
	code, _, stderr := runLint(t, "-root", filepath.Join(t.TempDir(), "nope"))
	if code != 2 {
		t.Fatalf("exit = %d, want 2", code)
	}
	if stderr == "" {
		t.Fatal("load error did not reach stderr")
	}
}

// TestUnknownAnalyzerExitsTwo: -run with a bad name is usage error 2.
func TestUnknownAnalyzerExitsTwo(t *testing.T) {
	code, _, _ := runLint(t, "-root", fixtureRoot(t), "-run", "nosuch")
	if code != 2 {
		t.Fatalf("exit = %d, want 2", code)
	}
}

// TestUnusedSuppressions: the stale ignore in the mini-module is only
// reported under -unused-suppressions, as the pseudo-analyzer
// "suppressions".
func TestUnusedSuppressions(t *testing.T) {
	code, stdout, _ := runLint(t, "-root", fixtureRoot(t), "-unused-suppressions", "-json")
	if code != 1 {
		t.Fatalf("exit = %d, want 1", code)
	}
	var diags []jsonDiag
	if err := json.Unmarshal([]byte(stdout), &diags); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, stdout)
	}
	var stale []jsonDiag
	for _, d := range diags {
		if d.Analyzer == "suppressions" {
			stale = append(stale, d)
		}
	}
	if len(stale) != 1 {
		t.Fatalf("stale suppressions = %d, want 1: %+v", len(stale), diags)
	}
	if filepath.ToSlash(stale[0].File) != "internal/use/use.go" || !strings.Contains(stale[0].Message, "stale //lint:ignore") {
		t.Fatalf("unexpected stale report: %+v", stale[0])
	}
}

// TestFindingWithoutPosition: in a module with tests and none of the
// packages deadexport's allowlist names, each entry is a stale
// suppression without a position. The text output prints it as
// "[analyzer] message", with no empty file or line 0, and -json leaves
// out its file, line and col.
func TestFindingWithoutPosition(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("testdata", "stale"))
	if err != nil {
		t.Fatal(err)
	}
	code, stdout, stderr := runLint(t, "-root", root, "-unused-suppressions")
	if code != 1 {
		t.Fatalf("exit = %d, want 1 (stderr: %s)", code, stderr)
	}
	lines := strings.Split(strings.TrimSuffix(stdout, "\n"), "\n")
	for _, line := range lines {
		if !strings.HasPrefix(line, "[suppressions] stale deadexport allowlist entry ") || !strings.HasSuffix(line, "no such package — remove the entry") {
			t.Fatalf("finding without a position printed as %q", line)
		}
	}
	code, stdout, _ = runLint(t, "-root", root, "-unused-suppressions", "-json")
	if code != 1 {
		t.Fatalf("-json exit = %d, want 1", code)
	}
	var diags []map[string]any
	if err := json.Unmarshal([]byte(stdout), &diags); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, stdout)
	}
	if len(diags) != len(lines) {
		t.Fatalf("-json has %d findings, the text output %d", len(diags), len(lines))
	}
	for _, d := range diags {
		if len(d) != 2 || d["analyzer"] != "suppressions" || d["message"] == nil {
			t.Fatalf("-json finding without a position: %v, want analyzer and message only", d)
		}
	}
}

// TestHelpListsAnalyzers: -help must name every analyzer with its
// one-line doc (the acceptance bar for discoverability).
func TestHelpListsAnalyzers(t *testing.T) {
	code, _, stderr := runLint(t, "-help")
	if code != 2 {
		t.Fatalf("exit = %d, want 2 (flag package help path)", code)
	}
	for _, a := range analyzers {
		if !strings.Contains(stderr, a.Name) {
			t.Errorf("-help does not mention analyzer %s", a.Name)
		}
	}
	if len(analyzers) != 9 {
		t.Errorf("suite has %d analyzers, want 9", len(analyzers))
	}
}
