// Package deadexport flags exported names nothing calls: an exported
// package-level func, type, var or const, or an exported method,
// declared outside tests in internal/ or cmd/ needs a reference from a
// non-test file of the module or from a test of another package. Its
// own package's tests do not count; they can hold the helper
// themselves. Exempt are methods with the name and signature of a
// method of an interface the module uses (error and fmt's interfaces
// included), the test-support packages, and the obs catalog, which
// obscatalog checks by value. A facade (root package) name is flagged
// only when nothing refers to it, tests and examples included.
//
// The check proves absence, so it is silent when the driver loaded only
// some packages or no test files. Names kept without a caller go in
// allowlist; an entry whose name has a caller again, or is gone, is
// filed under the "suppressions" pseudo-analyzer, which the driver
// prints only under -unused-suppressions, like a stale //lint:ignore.
package deadexport

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"mscfpq/internal/analysis"
)

// allowlist maps "importpath.Name" or "importpath.Type.Method" to the
// ROADMAP item that gives the name a caller. At most five names.
var allowlist = map[string]string{
	"mscfpq/internal/store.GrammarHash":   "ROADMAP items 9 and 11 key path-pattern contexts by it, α-invariantly",
	"mscfpq/internal/dataset.LinearChain": "ROADMAP items 1(b) and 29 probe the per-round n-slot cost on it",
}

// Analyzer is the deadexport check.
var Analyzer = newAnalyzer(allowlist)

func newAnalyzer(allow map[string]string) *analysis.Analyzer {
	return &analysis.Analyzer{
		Name:      "deadexport",
		Doc:       "every exported name in internal/ and cmd/ has a caller outside its own package's tests (interface methods, test-support packages and the obs catalog exempt)",
		RunModule: func(pass *analysis.ModulePass) error { run(pass, allow); return nil },
	}
}

var testSupport = map[string]bool{"difftest": true, "gen": true, "oracle": true, "fault": true, "analysistest": true}

// decl is one exported declaration under check.
type decl struct {
	name   *ast.Ident
	node   ast.Node // references inside the declaration do not count
	pkg    string
	facade bool
	method *types.Func
	used   bool // referenced from a file that counts
	anyRef bool // referenced at all: the facade's rule
}

func run(pass *analysis.ModulePass, allow map[string]string) {
	fset := pass.Module.Fset()
	isTest := func(f *ast.File) bool { return strings.HasSuffix(fset.Position(f.Pos()).Filename, "_test.go") }
	decls := map[string]*decl{}
	var keys []string
	pkgFile := map[string]*ast.File{}
	tests := false
	for _, u := range pass.Units {
		rel := relPath(pass.Module.Path, u.Pkg.Path())
		facade := rel == ""
		judged := (facade || strings.HasPrefix(rel, "internal/") || strings.HasPrefix(rel, "cmd/")) &&
			!testSupport[rel[strings.LastIndex(rel, "/")+1:]]
		for _, f := range u.Files {
			if isTest(f) {
				tests = true
				continue
			}
			if !judged {
				continue
			}
			if pkgFile[u.Pkg.Path()] == nil {
				pkgFile[u.Pkg.Path()] = f
			}
			declare(f, func(id *ast.Ident, node ast.Node) {
				obj := u.Info.Defs[id]
				k := key(obj)
				if k == "" || !id.IsExported() || rel == "internal/obs" && catalogEntry(obj) {
					return
				}
				d := &decl{name: id, node: node, pkg: u.Pkg.Path(), facade: facade}
				d.method, _ = obj.(*types.Func)
				decls[k] = d
				keys = append(keys, k)
			})
		}
	}
	if !pass.Complete || !tests {
		return
	}

	ifaces := map[string]bool{}
	for _, u := range pass.Units {
		from := strings.TrimSuffix(u.Pkg.Path(), "_test")
		for _, f := range u.Files {
			test := isTest(f)
			eachUse(f, func(id *ast.Ident) {
				d := decls[key(u.Info.Uses[id])]
				if d == nil || id.Pos() >= d.node.Pos() && id.Pos() < d.node.End() {
					return
				}
				d.anyRef = true
				d.used = d.used || !test || from != d.pkg
			})
		}
		for _, tv := range u.Info.Types {
			addInterface(ifaces, tv.Type)
		}
	}
	addInterface(ifaces, types.Universe.Lookup("error").Type())
	if fmtPkg, err := pass.Module.Import("fmt"); err == nil {
		for _, name := range []string{"Stringer", "GoStringer", "Formatter"} {
			addInterface(ifaces, fmtPkg.Scope().Lookup(name).Type())
		}
	}

	kept := map[string]bool{}
	for _, k := range keys {
		d := decls[k]
		switch {
		case d.facade:
			if !d.anyRef {
				pass.Reportf(d.name.Pos(), "facade name %s is referenced nowhere, tests and examples included", short(k))
			}
		case d.used || d.method != nil && ifaces[methodSig(d.method)]:
		case allow[k] != "":
			kept[k] = true
		default:
			pass.Reportf(d.name.Pos(), "exported %s has no caller outside its own package's tests: delete it, unexport it, or move it into the package's _test.go files", short(k))
		}
	}

	var stale []string
	for k := range allow {
		if !kept[k] {
			stale = append(stale, k)
		}
	}
	sort.Strings(stale)
	self := pass.Analyzer
	pass.Analyzer = &analysis.Analyzer{Name: "suppressions"}
	defer func() { pass.Analyzer = self }()
	for _, k := range stale {
		switch pkg := k[:strings.LastIndex(k, "/")+1] + strings.Split(short(k), ".")[0]; {
		case decls[k] != nil:
			pass.Reportf(decls[k].name.Pos(), "stale deadexport allowlist entry %s: it has a caller now — remove the entry", k)
		case pkgFile[pkg] != nil:
			pass.Reportf(pkgFile[pkg].Name.Pos(), "stale deadexport allowlist entry %s: no such name — remove the entry", k)
		default:
			pass.Reportf(token.NoPos, "stale deadexport allowlist entry %s: no such package — remove the entry", k)
		}
	}
}

// relPath is an import path relative to its module; a fixture module
// outside the loaded one is rooted at its first element.
func relPath(modPath, path string) string {
	if rest, ok := strings.CutPrefix(path+"/", modPath+"/"); ok {
		return strings.TrimSuffix(rest, "/")
	}
	_, rest, _ := strings.Cut(path, "/")
	return rest
}

// declare calls fn for each package-level name and method f declares.
func declare(f *ast.File, fn func(*ast.Ident, ast.Node)) {
	for _, d := range f.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok {
			fn(fd.Name, fd)
			continue
		}
		for _, spec := range d.(*ast.GenDecl).Specs {
			switch s := spec.(type) {
			case *ast.TypeSpec:
				fn(s.Name, s)
			case *ast.ValueSpec:
				for _, id := range s.Names {
					fn(id, s)
				}
			}
		}
	}
}

// catalogEntry reports whether an obs name belongs to the catalog: a
// Layer*, Key* or Span* constant, or a var (an instrument).
func catalogEntry(obj types.Object) bool {
	if _, isVar := obj.(*types.Var); isVar {
		return true
	}
	_, isConst := obj.(*types.Const)
	name := obj.Name()
	return isConst && (strings.HasPrefix(name, "Layer") || strings.HasPrefix(name, "Key") || strings.HasPrefix(name, "Span"))
}

// key names an object the same way in every unit: each unit is
// type-checked on its own, so one declaration's objects differ between
// the unit declaring it and the units importing it.
func key(obj types.Object) string {
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	if fn, ok := obj.(*types.Func); ok && fn.Type().(*types.Signature).Recv() != nil {
		t := fn.Origin().Type().(*types.Signature).Recv().Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if named, ok := t.(*types.Named); ok && !types.IsInterface(named) {
			return obj.Pkg().Path() + "." + named.Obj().Name() + "." + obj.Name()
		}
		return ""
	}
	if obj.Parent() != obj.Pkg().Scope() {
		return ""
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

// short drops a key's import path directories.
func short(k string) string { return k[strings.LastIndex(k, "/")+1:] }

// eachUse calls fn for every identifier in f but a method's receiver
// type: a type only its own methods name is dead.
func eachUse(f *ast.File, fn func(*ast.Ident)) {
	var walk func(ast.Node) bool
	walk = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncDecl:
			ast.Inspect(n.Type, walk)
			if n.Body != nil {
				ast.Inspect(n.Body, walk)
			}
			return false
		case *ast.Ident:
			fn(n)
		}
		return true
	}
	ast.Inspect(f, walk)
}

// addInterface records the methods of t, if it is an interface, or of
// the interfaces a function of type t takes or returns.
func addInterface(set map[string]bool, t types.Type) {
	if sig, ok := t.(*types.Signature); ok {
		for _, tup := range []*types.Tuple{sig.Params(), sig.Results()} {
			for i := 0; i < tup.Len(); i++ {
				addInterface(set, tup.At(i).Type())
			}
		}
		return
	}
	if it, ok := t.Underlying().(*types.Interface); ok {
		for i := 0; i < it.NumMethods(); i++ {
			set[methodSig(it.Method(i))] = true
		}
	}
}

// methodSig spells a method's name and parameter and result types the
// same in every unit.
func methodSig(fn *types.Func) string {
	sig := fn.Type().(*types.Signature)
	s := fn.Name()
	for _, tup := range []*types.Tuple{sig.Params(), sig.Results()} {
		s += "("
		for i := 0; i < tup.Len(); i++ {
			s += types.TypeString(tup.At(i).Type(), (*types.Package).Path) + ","
		}
		s += ")"
	}
	if sig.Variadic() {
		s += "..."
	}
	return s
}
