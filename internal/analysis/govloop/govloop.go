// Package govloop flags kernel loops that ignore the execution
// governor they have in scope.
//
// PR 1 made every long-running algorithm loop — CFPQ fixpoint rounds,
// the row blocks of big matrix multiplications — poll an exec.Run (or a
// context) so queries stay cancellable and budget-bounded. That discipline is easy to lose:
// a new kernel that receives a governor but never consults it compiles
// and passes tests, yet runs unbounded. govloop turns the convention
// into a build failure.
//
// A function is *governed* when a context.Context or *exec.Run is
// reachable in it (parameter, receiver field, captured or local
// variable). Inside governed functions the analyzer inspects each
// outermost loop and flags it when both hold:
//
//   - the loop is kernel-sized: a fixpoint loop (no condition, or a
//     condition that is a bare bool/negation/function call, e.g.
//     `for changed`, `for !frontier.Empty()`, `for len(work) > 0`), or
//     any loop containing a nested loop (≥ quadratic in the operand);
//     flat constant-trip or single-level index loops are accepted;
//   - no governor checkpoint is reachable in its body: no method call
//     on a context or run value (run.Err, run.Charge, the governed
//     run.Mul, ctx.Err, <-ctx.Done()), and no call that passes the
//     governor along to a governed callee.
//
// Ungoverned helpers (e.g. the deliberately plain matrix.Mul serial
// kernel) are out of scope: with no governor in sight there is nothing
// to poll — callers that need interruption use the governed variants.
package govloop

import (
	"go/ast"

	"mscfpq/internal/analysis"
)

// Analyzer is the govloop analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "govloop",
	Doc: "flags kernel-sized loops in governed functions that never poll " +
		"the execution governor (exec.Run / context) available to them",
	DefaultScope: []string{
		"internal/matrix",
		"internal/cfpq",
		"internal/rpq",
		"internal/plan",
	},
	IgnoreTestFiles: true,
	Run:             run,
}

func run(pass *analysis.Pass) error {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			if !hasGovernor(pass, fn) {
				continue
			}
			checkLoops(pass, fn.Body)
		}
	}
	return nil
}

// hasGovernor reports whether a governor value (context.Context or
// *exec.Run) is reachable anywhere in the function: as a parameter,
// receiver, local, or captured identifier.
func hasGovernor(pass *analysis.Pass, fn *ast.FuncDecl) bool {
	found := false
	ast.Inspect(fn, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok || found {
			return !found
		}
		obj := pass.TypesInfo.Defs[id]
		if obj == nil {
			obj = pass.TypesInfo.Uses[id]
		}
		if obj != nil && analysis.IsGovernorType(obj.Type()) {
			found = true
		}
		return !found
	})
	return found
}

// checkLoops walks a body, stopping at each outermost loop.
func checkLoops(pass *analysis.Pass, body ast.Node) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n.(type) {
		case *ast.ForStmt, *ast.RangeStmt:
			if kernelSized(pass, n) && !hasCheckpoint(pass, n) {
				pass.Reportf(n.Pos(), "kernel-sized loop without a governor checkpoint: poll run.Err()/run.Charge (or the context) inside the loop, use a governed kernel (run.Mul), or pass the governor to the callee")
			}
			// The discipline is one poll per outermost kernel loop;
			// inner row/column loops are deliberately unchecked.
			return false
		}
		return true
	})
}

// kernelSized reports whether the loop's trip count can scale with the
// graph/matrix operand: fixpoint-style conditions or nested loops.
func kernelSized(pass *analysis.Pass, loop ast.Node) bool {
	if forStmt, ok := loop.(*ast.ForStmt); ok {
		switch cond := ast.Unparen(forStmt.Cond).(type) {
		case nil:
			return true // for {} — fixpoint until break
		case *ast.Ident, *ast.UnaryExpr, *ast.CallExpr, *ast.SelectorExpr:
			return true // for changed / for !v.Empty() / for x.More()
		case *ast.BinaryExpr:
			// for len(work) > 0 — worklist loops. Plain index
			// comparisons (i < n) are flat sweeps, accepted.
			if isCallish(cond.X) || isCallish(cond.Y) {
				return true
			}
		}
	}
	// A loop containing another loop multiplies trip counts.
	nested := false
	walkLoopBody(loop, func(n ast.Node) bool {
		switch n.(type) {
		case *ast.ForStmt, *ast.RangeStmt:
			nested = true
		}
		return !nested
	})
	return nested
}

func isCallish(e ast.Expr) bool {
	_, ok := ast.Unparen(e).(*ast.CallExpr)
	return ok
}

// walkLoopBody visits the nodes of a loop's body (and range/cond
// expressions are skipped — only the body repeats).
func walkLoopBody(loop ast.Node, fn func(ast.Node) bool) {
	var body *ast.BlockStmt
	switch l := loop.(type) {
	case *ast.ForStmt:
		body = l.Body
	case *ast.RangeStmt:
		body = l.Body
	}
	if body == nil {
		return
	}
	ast.Inspect(body, func(n ast.Node) bool {
		if n == nil {
			return true
		}
		return fn(n)
	})
}

// hasCheckpoint reports whether the loop body contains a governor
// checkpoint: a method call on a governor value, or any call that
// receives a governor argument (delegation to a governed callee).
func hasCheckpoint(pass *analysis.Pass, loop ast.Node) bool {
	found := false
	walkLoopBody(loop, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return !found
		}
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			if tv, ok := pass.TypesInfo.Types[sel.X]; ok && analysis.IsGovernorType(tv.Type) {
				found = true
				return false
			}
		}
		for _, arg := range call.Args {
			if tv, ok := pass.TypesInfo.Types[arg]; ok && analysis.IsGovernorType(tv.Type) {
				found = true
				return false
			}
		}
		return !found
	})
	return found
}
