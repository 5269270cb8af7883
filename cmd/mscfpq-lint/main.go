// Command mscfpq-lint is the repository's multichecker: it loads and
// type-checks every package of the module from source (standard
// library only — no x/tools dependency) and runs the custom analyzers
// that turn this codebase's kernel, locking, determinism, and
// concurrency-contract conventions into build failures:
//
//	govloop     kernel loops must poll the execution governor they have
//	lockguard   `// guarded by <mu>` fields only touched under the lock
//	detrange    no map-iteration-ordered output or unsorted collection
//	errdrop     no silently dropped parse/IO errors
//	atomicfield a field touched through sync/atomic (or `// atomic`)
//	            is touched atomically everywhere
//	snapfreeze  `// immutable after publish` types only mutated before
//	            the value escapes its constructor
//	failcover   every durability Sync/Rename/Write/Truncate reachable
//	            behind a declared failpoint
//	obscatalog  metric/span names resolve to the internal/obs catalog,
//	            and the catalog carries no dead entries
//	deadexport  every exported name in internal/ and cmd/ has a caller
//	            outside its own package's tests
//
// Findings may be suppressed with `//lint:ignore <analyzer> <reason>`
// on (or directly above) the flagged line; the reason is mandatory.
// `-unused-suppressions` reports ignore comments that no longer
// silence anything, and deadexport allowlist entries that no longer
// keep a name.
//
// Usage:
//
//	mscfpq-lint [-root dir] [-run list] [-tags list] [-tests=false]
//	            [-json] [-unused-suppressions] [packages...]
//
// With no package arguments every package in the module is checked,
// each analyzer restricted to its default scope; explicit
// module-relative package arguments (e.g. internal/cfpq) override the
// scopes. Exit status: 0 clean, 1 findings, 2 load/internal error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"mscfpq/internal/analysis"
	"mscfpq/internal/analysis/atomicfield"
	"mscfpq/internal/analysis/deadexport"
	"mscfpq/internal/analysis/detrange"
	"mscfpq/internal/analysis/errdrop"
	"mscfpq/internal/analysis/failcover"
	"mscfpq/internal/analysis/govloop"
	"mscfpq/internal/analysis/lockguard"
	"mscfpq/internal/analysis/obscatalog"
	"mscfpq/internal/analysis/snapfreeze"
)

// analyzers is the full suite, in reporting order.
var analyzers = []*analysis.Analyzer{
	govloop.Analyzer,
	lockguard.Analyzer,
	detrange.Analyzer,
	errdrop.Analyzer,
	atomicfield.Analyzer,
	snapfreeze.Analyzer,
	failcover.Analyzer,
	obscatalog.Analyzer,
	deadexport.Analyzer,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr *os.File) int {
	fs := flag.NewFlagSet("mscfpq-lint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	root := fs.String("root", "", "module root (default: nearest go.mod above the working directory)")
	runList := fs.String("run", "", "comma-separated analyzer names to run (default: all)")
	tags := fs.String("tags", "", "comma-separated extra build tags (e.g. nofault)")
	tests := fs.Bool("tests", true, "also analyze _test.go files (per-analyzer filters still apply)")
	jsonOut := fs.Bool("json", false, "emit findings as a JSON array on stdout")
	unused := fs.Bool("unused-suppressions", false, "also report //lint:ignore comments that no longer suppress any finding")
	verbose := fs.Bool("v", false, "log each package as it is analyzed")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: mscfpq-lint [flags] [module-relative packages]\n\nAnalyzers:\n")
		for _, a := range analyzers {
			fmt.Fprintf(stderr, "  %-12s %s\n", a.Name, a.Doc)
		}
		fmt.Fprintln(stderr, "\nFlags:")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}

	selected, err := selectAnalyzers(*runList)
	if err != nil {
		fmt.Fprintln(stderr, "mscfpq-lint:", err)
		return 2
	}

	if *root == "" {
		*root, err = findRoot()
		if err != nil {
			fmt.Fprintln(stderr, "mscfpq-lint:", err)
			return 2
		}
	}
	mod, err := analysis.LoadModuleTags(*root, splitList(*tags))
	if err != nil {
		fmt.Fprintln(stderr, "mscfpq-lint:", err)
		return 2
	}

	dirs := fs.Args()
	explicit := len(dirs) > 0
	if !explicit {
		dirs, err = mod.Dirs()
		if err != nil {
			fmt.Fprintln(stderr, "mscfpq-lint:", err)
			return 2
		}
	}

	var unitAnalyzers, moduleAnalyzers []*analysis.Analyzer
	for _, a := range selected {
		if a.RunModule != nil {
			moduleAnalyzers = append(moduleAnalyzers, a)
		} else {
			unitAnalyzers = append(unitAnalyzers, a)
		}
	}

	tracker := analysis.NewTracker()
	// ranOn records which analyzers produced (possibly suppressed)
	// diagnostics over which units — the baseline -unused-suppressions
	// compares ignore comments against.
	ranOn := map[*analysis.Unit]map[string]bool{}
	markRan := func(u *analysis.Unit, name string) {
		if ranOn[u] == nil {
			ranOn[u] = map[string]bool{}
		}
		ranOn[u][name] = true
	}

	var diags []analysis.Diagnostic
	var allUnits []*analysis.Unit
	for _, rel := range dirs {
		todo := applicable(unitAnalyzers, rel, explicit)
		if len(todo) == 0 && len(moduleAnalyzers) == 0 && !*unused {
			continue
		}
		if *verbose {
			fmt.Fprintf(stderr, "mscfpq-lint: %s\n", mod.ImportPath(rel))
		}
		units, err := mod.LoadUnits(rel, *tests)
		if err != nil {
			fmt.Fprintln(stderr, "mscfpq-lint:", err)
			return 2
		}
		allUnits = append(allUnits, units...)
		for _, u := range units {
			for _, a := range todo {
				ds, err := analysis.RunTracked(a, u, tracker)
				if err != nil {
					fmt.Fprintln(stderr, "mscfpq-lint:", err)
					return 2
				}
				diags = append(diags, ds...)
				markRan(u, a.Name)
			}
		}
	}
	for _, a := range moduleAnalyzers {
		ds, err := analysis.RunModule(a, mod, allUnits, !explicit, tracker)
		if err != nil {
			fmt.Fprintln(stderr, "mscfpq-lint:", err)
			return 2
		}
		for _, d := range ds {
			// A module analyzer files its stale allowlist entries under
			// "suppressions"; like stale ignore comments, they are
			// reported only on request.
			if d.Analyzer != "suppressions" || *unused {
				diags = append(diags, d)
			}
		}
		for _, u := range allUnits {
			markRan(u, a.Name)
		}
	}
	if *unused {
		diags = append(diags, staleSuppressions(allUnits, ranOn, tracker)...)
	}

	sort.Slice(diags, func(i, j int) bool {
		pi, pj := mod.Fset().Position(diags[i].Pos), mod.Fset().Position(diags[j].Pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		return diags[i].Analyzer < diags[j].Analyzer
	})
	if *jsonOut {
		if err := writeJSON(stdout, mod, *root, diags); err != nil {
			fmt.Fprintln(stderr, "mscfpq-lint:", err)
			return 2
		}
	} else {
		for _, d := range diags {
			// A finding without a position (a stale allowlist entry
			// naming no package) prints as its analyzer and message.
			if pos := mod.Fset().Position(d.Pos); pos.IsValid() {
				fmt.Fprintf(stdout, "%s:%d:%d: ", relPath(*root, pos.Filename), pos.Line, pos.Column)
			}
			fmt.Fprintf(stdout, "[%s] %s\n", d.Analyzer, d.Message)
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(stderr, "mscfpq-lint: %d finding(s)\n", len(diags))
		return 1
	}
	return 0
}

// staleSuppressions reports //lint:ignore comments that silenced
// nothing: either naming an analyzer the suite does not have, or
// covering code where their analyzer ran and found nothing.
func staleSuppressions(units []*analysis.Unit, ranOn map[*analysis.Unit]map[string]bool, tracker *analysis.Tracker) []analysis.Diagnostic {
	known := map[string]bool{}
	for _, a := range analyzers {
		known[a.Name] = true
	}
	var out []analysis.Diagnostic
	for _, u := range units {
		for _, s := range analysis.UnitSuppressions(u) {
			if tracker.Used(s.Pos) {
				continue
			}
			switch {
			case !known[s.Analyzer]:
				out = append(out, analysis.Diagnostic{
					Pos:      s.Pos,
					Analyzer: "suppressions",
					Message:  fmt.Sprintf("//lint:ignore names unknown analyzer %q — it can never suppress anything", s.Analyzer),
				})
			case ranOn[u][s.Analyzer]:
				out = append(out, analysis.Diagnostic{
					Pos:      s.Pos,
					Analyzer: "suppressions",
					Message:  fmt.Sprintf("stale //lint:ignore: %s reports no finding here — remove the comment", s.Analyzer),
				})
			}
		}
	}
	return out
}

// jsonDiag is the -json output record; a finding without a position
// has no file, line or col.
type jsonDiag struct {
	File     string `json:"file,omitempty"`
	Line     int    `json:"line,omitempty"`
	Col      int    `json:"col,omitempty"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

func writeJSON(stdout *os.File, mod *analysis.Module, root string, diags []analysis.Diagnostic) error {
	out := make([]jsonDiag, 0, len(diags))
	for _, d := range diags {
		pos := mod.Fset().Position(d.Pos)
		out = append(out, jsonDiag{
			File:     relPath(root, pos.Filename),
			Line:     pos.Line,
			Col:      pos.Column,
			Analyzer: d.Analyzer,
			Message:  d.Message,
		})
	}
	enc := json.NewEncoder(stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

func relPath(root, filename string) string {
	rel, err := filepath.Rel(root, filename)
	if err != nil {
		return filename
	}
	return rel
}

func splitList(list string) []string {
	if list == "" {
		return nil
	}
	var out []string
	for _, s := range strings.Split(list, ",") {
		if s = strings.TrimSpace(s); s != "" {
			out = append(out, s)
		}
	}
	return out
}

// selectAnalyzers resolves -run.
func selectAnalyzers(list string) ([]*analysis.Analyzer, error) {
	if list == "" {
		return analyzers, nil
	}
	byName := map[string]*analysis.Analyzer{}
	for _, a := range analyzers {
		byName[a.Name] = a
	}
	var out []*analysis.Analyzer
	for _, name := range strings.Split(list, ",") {
		a, ok := byName[strings.TrimSpace(name)]
		if !ok {
			return nil, fmt.Errorf("unknown analyzer %q", name)
		}
		out = append(out, a)
	}
	return out, nil
}

// applicable returns the analyzers whose scope covers a
// module-relative package directory. Explicitly listed packages
// bypass DefaultScope.
func applicable(selected []*analysis.Analyzer, rel string, explicit bool) []*analysis.Analyzer {
	var out []*analysis.Analyzer
	for _, a := range selected {
		if explicit || inScope(a, rel) {
			out = append(out, a)
		}
	}
	return out
}

func inScope(a *analysis.Analyzer, rel string) bool {
	if len(a.DefaultScope) == 0 {
		return true
	}
	for _, prefix := range a.DefaultScope {
		if rel == prefix || strings.HasPrefix(rel, prefix+"/") {
			return true
		}
	}
	return false
}

// findRoot walks up from the working directory to the nearest go.mod.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod found above the working directory")
		}
		dir = parent
	}
}
