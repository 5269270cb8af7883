// Package lockguard enforces `// guarded by <mu>` field annotations.
//
// Shared mutable state in this repository — the cfpq.Index chunk-commit
// cache, the graph transpose cache, the RESP server's connection table,
// the gdb stores — is protected by per-struct mutexes. The convention
// is documented but nothing checks it; a single unlocked access
// compiles fine and turns into a data race only under the right
// interleaving. lockguard makes the convention machine-checked:
//
//	type Index struct {
//		mu sync.Mutex
//		T  []*matrix.Bool // guarded by mu
//	}
//
// Every read or write of an annotated field must then satisfy one of:
//
//   - the same receiver's mutex is held at the access: a
//     `<recv>.<mu>.Lock()` (or RLock for reads, when the mutex is an
//     RWMutex) appears earlier in the enclosing function with no
//     intervening unlock — deferred unlocks do not end the critical
//     section;
//   - the enclosing function's name ends in "Locked", the documented
//     caller-holds-the-lock convention;
//   - the receiver is a struct the function itself just constructed
//     (local variable initialized from a composite literal or new),
//     which cannot yet be shared.
//
// The analysis is intra-procedural and approximates control flow by
// source order, which matches the repository's lock style (lock/defer
// unlock, or short lock/unlock windows). Function literals are
// separate scopes: a closure that touches guarded state must lock (or
// be suppressed) itself, since it may run on another goroutine.
package lockguard

import (
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"strings"

	"mscfpq/internal/analysis"
)

// Analyzer is the lockguard analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "lockguard",
	Doc: "checks that struct fields annotated `// guarded by <mu>` are only " +
		"accessed while the annotated mutex of the same receiver is held",
	IgnoreTestFiles: true,
	Run:             run,
}

var guardedRE = regexp.MustCompile(`guarded by ([A-Za-z_][A-Za-z0-9_]*)`)

// guardInfo describes one annotated field.
type guardInfo struct {
	mutex string // sibling mutex field name
}

func run(pass *analysis.Pass) error {
	guards := collectGuards(pass)
	if len(guards) == 0 {
		return nil
	}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			checkScope(pass, guards, fn.Name.Name, fn.Body, fn.Body)
		}
	}
	return nil
}

// collectGuards finds annotated fields, validating that the named
// mutex exists as a sibling field of a sync.Mutex/RWMutex type.
func collectGuards(pass *analysis.Pass) map[types.Object]guardInfo {
	guards := map[types.Object]guardInfo{}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok || st.Fields == nil {
				return true
			}
			for _, field := range st.Fields.List {
				mu := annotation(field)
				if mu == "" {
					continue
				}
				if !findMutex(pass, st, mu) {
					pass.Reportf(field.Pos(), "field is annotated `guarded by %s` but the struct has no sync.Mutex/RWMutex field named %q", mu, mu)
					continue
				}
				for _, name := range field.Names {
					if obj := pass.TypesInfo.Defs[name]; obj != nil {
						guards[obj] = guardInfo{mutex: mu}
					}
				}
			}
			return true
		})
	}
	return guards
}

func annotation(field *ast.Field) string {
	for _, cg := range []*ast.CommentGroup{field.Doc, field.Comment} {
		if cg == nil {
			continue
		}
		if m := guardedRE.FindStringSubmatch(cg.Text()); m != nil {
			return m[1]
		}
	}
	return ""
}

func findMutex(pass *analysis.Pass, st *ast.StructType, name string) bool {
	for _, field := range st.Fields.List {
		for _, n := range field.Names {
			if n.Name != name {
				continue
			}
			if obj := pass.TypesInfo.Defs[n]; obj != nil {
				return analysis.IsMutexType(obj.Type())
			}
		}
	}
	return false
}

// checkScope analyzes one function scope (a FuncDecl body or a FuncLit
// body). Nested function literals are recursed into as fresh scopes —
// their lock state is independent of the enclosing function's.
func checkScope(pass *analysis.Pass, guards map[types.Object]guardInfo, name string, scope *ast.BlockStmt, body ast.Node) {
	callerHolds := strings.HasSuffix(name, "Locked")
	constructed := analysis.ConstructedLocals(pass.TypesInfo, scope)

	analysis.WalkStack(body, func(n ast.Node, stack []ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok && lit.Body != body {
			checkScope(pass, guards, name+" (func literal)", lit.Body, lit.Body)
			return false
		}
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		selection := pass.TypesInfo.Selections[sel]
		if selection == nil || selection.Kind() != types.FieldVal {
			return true
		}
		info, guarded := guards[selection.Obj()]
		if !guarded {
			return true
		}
		if callerHolds {
			return true
		}
		base := analysis.ExprString(pass.Fset, sel.X)
		if id, ok := ast.Unparen(sel.X).(*ast.Ident); ok {
			if obj := pass.TypesInfo.Uses[id]; obj != nil && constructed[obj] {
				return true // construction phase: value not shared yet
			}
		}
		write := isWriteAccess(sel, stack)
		held := heldState(pass, scope, base+"."+info.mutex, sel.Pos())
		switch {
		case held == "Lock":
			// exclusive: fine for both reads and writes
		case held == "RLock" && !write:
			// shared: fine for reads
		case held == "RLock" && write:
			pass.Reportf(sel.Pos(), "write to %s.%s (guarded by %s) while holding only the read lock", base, selection.Obj().Name(), info.mutex)
		default:
			verb := "read of"
			if write {
				verb = "write to"
			}
			pass.Reportf(sel.Pos(), "%s %s.%s without holding %s.%s (field is `guarded by %s`)", verb, base, selection.Obj().Name(), base, info.mutex, info.mutex)
		}
		return true
	})
}

// isWriteAccess reports whether the selector is the target of an
// assignment, an inc/dec statement, a delete() call, or an element
// write through it (m[k] = v on a guarded map field).
func isWriteAccess(sel *ast.SelectorExpr, stack []ast.Node) bool {
	var child ast.Node = sel
	for i := len(stack) - 1; i >= 0; i-- {
		switch parent := stack[i].(type) {
		case *ast.AssignStmt:
			for _, lhs := range parent.Lhs {
				if lhs == child {
					return true
				}
			}
			return false
		case *ast.IncDecStmt:
			return parent.X == child
		case *ast.IndexExpr:
			if parent.X != child {
				return false
			}
		case *ast.CallExpr:
			if id, ok := ast.Unparen(parent.Fun).(*ast.Ident); ok && id.Name == "delete" {
				return len(parent.Args) > 0 && parent.Args[0] == child
			}
			return false
		case *ast.SelectorExpr, *ast.ParenExpr, *ast.StarExpr:
			// keep climbing through the access path
		default:
			return false
		}
		child = stack[i]
	}
	return false
}

// heldState returns the lock state of muPath ("s.mu") at pos in the
// scope, approximating control flow by source order: the last
// non-deferred Lock/RLock/Unlock/RUnlock call on muPath before pos
// wins. Deferred unlocks are ignored (they end the section at return).
// Lock events inside a branch that terminates (its block ends in
// return, break, continue, goto, or panic) are ignored when pos lies
// after the branch — control cannot flow from such an event to pos, so
// the common `mu.Lock(); if done { mu.Unlock(); return }; ...` pattern
// keeps its critical section.
func heldState(pass *analysis.Pass, scope *ast.BlockStmt, muPath string, pos token.Pos) string {
	state := ""
	analysis.WalkStack(scope, func(n ast.Node, stack []ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false // separate scope
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() >= pos {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return true
		}
		kind := sel.Sel.Name
		switch kind {
		case "Lock", "RLock", "Unlock", "RUnlock":
		default:
			return true
		}
		if analysis.ExprString(pass.Fset, sel.X) != muPath {
			return true
		}
		for _, anc := range stack {
			if _, ok := anc.(*ast.DeferStmt); ok {
				return true // defer mu.Unlock() releases at return, not here
			}
		}
		if inDeadBranch(stack, pos) {
			return true // the branch returns before control reaches pos
		}
		switch kind {
		case "Lock", "RLock":
			state = kind
		case "Unlock", "RUnlock":
			state = ""
		}
		return true
	})
	return state
}

// inDeadBranch reports whether the node whose ancestor stack is given
// sits inside a conditional block that both excludes pos and ends in a
// terminating statement: events there cannot affect the state at pos.
func inDeadBranch(stack []ast.Node, pos token.Pos) bool {
	for i, anc := range stack {
		var body []ast.Stmt
		var span ast.Node
		switch n := anc.(type) {
		case *ast.BlockStmt:
			if i == 0 {
				continue
			}
			if _, ok := stack[i-1].(*ast.IfStmt); !ok {
				continue
			}
			body, span = n.List, n
		case *ast.CaseClause:
			body, span = n.Body, n
		case *ast.CommClause:
			body, span = n.Body, n
		default:
			continue
		}
		if pos >= span.Pos() && pos < span.End() {
			continue
		}
		if len(body) > 0 && terminates(body[len(body)-1]) {
			return true
		}
	}
	return false
}

// terminates reports whether a statement unconditionally leaves the
// enclosing block: return, break/continue/goto, or a panic call.
func terminates(s ast.Stmt) bool {
	switch s := s.(type) {
	case *ast.ReturnStmt, *ast.BranchStmt:
		return true
	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok {
			if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
				return id.Name == "panic"
			}
		}
	}
	return false
}
