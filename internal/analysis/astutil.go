package analysis

import (
	"bytes"
	"go/ast"
	"go/printer"
	"go/token"
	"go/types"
	"strings"
)

// IsContextType reports whether t is context.Context.
func IsContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context"
}

// IsGovernorType reports whether t is one of the execution-governance
// types every kernel loop is expected to poll: context.Context or
// *exec.Run (matched by package-path suffix so fixture modules work).
func IsGovernorType(t types.Type) bool {
	if t == nil {
		return false
	}
	if IsContextType(t) {
		return true
	}
	ptr, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := ptr.Elem().(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj != nil && obj.Pkg() != nil &&
		strings.HasSuffix(obj.Pkg().Path(), "internal/exec") && obj.Name() == "Run"
}

// IsMutexType reports whether t is sync.Mutex or sync.RWMutex.
func IsMutexType(t types.Type) bool {
	named, isNamed := t.(*types.Named)
	if !isNamed {
		return false
	}
	obj := named.Obj()
	return obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == "sync" && (obj.Name() == "Mutex" || obj.Name() == "RWMutex")
}

// HasWriteMethod reports whether t (or *t) has a Write([]byte) (int,
// error) method — the structural io.Writer check, which also matches
// strings.Builder and bytes.Buffer whose output order is visible.
func HasWriteMethod(t types.Type) bool {
	for _, typ := range []types.Type{t, types.NewPointer(t)} {
		ms := types.NewMethodSet(typ)
		for i := 0; i < ms.Len(); i++ {
			f, ok := ms.At(i).Obj().(*types.Func)
			if !ok || f.Name() != "Write" {
				continue
			}
			sig, ok := f.Type().(*types.Signature)
			if !ok || sig.Params().Len() != 1 || sig.Results().Len() != 2 {
				continue
			}
			slice, ok := sig.Params().At(0).Type().(*types.Slice)
			if !ok {
				continue
			}
			if b, ok := slice.Elem().(*types.Basic); ok && b.Kind() == types.Byte {
				return true
			}
		}
	}
	return false
}

// ExprString renders an expression as source text — used to compare
// receiver paths like "idx" or "s.inner" syntactically.
func ExprString(fset *token.FileSet, e ast.Expr) string {
	var buf bytes.Buffer
	if err := printer.Fprint(&buf, fset, e); err != nil {
		return ""
	}
	return buf.String()
}

// WalkStack walks the subtree rooted at n, calling fn with each node
// and the stack of its ancestors (outermost first, not including n).
// If fn returns false the node's children are skipped.
func WalkStack(n ast.Node, fn func(n ast.Node, stack []ast.Node) bool) {
	var stack []ast.Node
	ast.Inspect(n, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		descend := fn(n, stack)
		if descend {
			stack = append(stack, n)
		}
		return descend
	})
}

// CalleeFunc resolves the *types.Func a call invokes (function, method,
// or qualified identifier); nil for builtins, conversions, and calls of
// function-typed values.
func CalleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		f, _ := info.Uses[fun].(*types.Func)
		return f
	case *ast.SelectorExpr:
		f, _ := info.Uses[fun.Sel].(*types.Func)
		return f
	}
	return nil
}

// ConstructedLocals returns local variables initialized from a
// composite literal or new(T) in this scope — values under
// construction that cannot be shared yet. FuncLit bodies are separate
// scopes and are not descended into.
func ConstructedLocals(info *types.Info, scope ast.Node) map[types.Object]bool {
	out := map[types.Object]bool{}
	ast.Inspect(scope, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		assign, ok := n.(*ast.AssignStmt)
		if !ok || len(assign.Lhs) != len(assign.Rhs) {
			return true
		}
		for i, lhs := range assign.Lhs {
			id, ok := lhs.(*ast.Ident)
			if !ok {
				continue
			}
			obj := info.Defs[id]
			if obj == nil {
				continue
			}
			if IsConstruction(assign.Rhs[i]) {
				out[obj] = true
			}
		}
		return true
	})
	return out
}

// IsConstruction reports whether e is a fresh allocation: a composite
// literal, &literal, or new(T).
func IsConstruction(e ast.Expr) bool {
	switch e := ast.Unparen(e).(type) {
	case *ast.CompositeLit:
		return true
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			_, ok := ast.Unparen(e.X).(*ast.CompositeLit)
			return ok
		}
	case *ast.CallExpr:
		if id, ok := ast.Unparen(e.Fun).(*ast.Ident); ok {
			return id.Name == "new"
		}
	}
	return false
}

// FirstEscape returns the position where obj first escapes the scope —
// passed to a call, aliased, returned, stored in a composite literal,
// sent on a channel, or address-taken — or token.NoPos if it never
// does. Conservative: any use whose effect on sharing is unclear
// counts as an escape.
func FirstEscape(info *types.Info, scope ast.Node, obj types.Object) token.Pos {
	first := token.NoPos
	WalkStack(scope, func(n ast.Node, stack []ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok || info.Uses[id] != obj {
			return true
		}
		if escapeContext(info, id, stack) {
			if !first.IsValid() || id.Pos() < first {
				first = id.Pos()
			}
		}
		return true
	})
	return first
}

// escapeContext classifies one use of an identifier by climbing its
// ancestor stack: true when the value (or something aliasing it) can
// become visible outside the current scope at this point.
func escapeContext(info *types.Info, id *ast.Ident, stack []ast.Node) bool {
	var child ast.Node = id
	for i := len(stack) - 1; i >= 0; i-- {
		switch p := stack[i].(type) {
		case *ast.ParenExpr, *ast.KeyValueExpr:
			child = p
		case *ast.SelectorExpr:
			if p.X != child {
				return false
			}
			child = p
		case *ast.IndexExpr:
			if p.X != child {
				return false // used as an index: a read
			}
			child = p
		case *ast.StarExpr:
			child = p
		case *ast.UnaryExpr:
			// Taking the address creates an alias that may flow anywhere.
			return p.Op == token.AND
		case *ast.CallExpr:
			if p.Fun == child {
				// Calling a method on the value: the receiver may be
				// retained — conservative escape. (Climbing reached here
				// through the p.Fun selector only for method values.)
				return true
			}
			// An argument. Pure builtins neither retain nor publish.
			switch builtinName(info, p) {
			case "len", "cap", "delete", "append", "copy":
				return false
			}
			return true
		case *ast.AssignStmt:
			for _, l := range p.Lhs {
				if l == child {
					return false // the lvalue being written, not an escape
				}
			}
			for _, r := range p.Rhs {
				if r == child {
					return aliasingType(info, child)
				}
			}
			return false
		case *ast.ValueSpec:
			for _, v := range p.Values {
				if v == child {
					return aliasingType(info, child)
				}
			}
			return false
		case *ast.ReturnStmt, *ast.CompositeLit:
			return true
		case *ast.SendStmt:
			return p.Value == child
		case *ast.IncDecStmt:
			return false
		default:
			if _, isExpr := p.(ast.Expr); isExpr {
				// Arithmetic, comparison, conversion operands: the value
				// itself does not leak through these, keep climbing only
				// for wrappers handled above.
				return false
			}
			return false
		}
	}
	return false
}

// builtinName returns the name of the builtin a call invokes, or "".
func builtinName(info *types.Info, call *ast.CallExpr) string {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return ""
	}
	if _, ok := info.Uses[id].(*types.Builtin); ok {
		return id.Name
	}
	return ""
}

// aliasingType reports whether copying e's value still shares memory
// with the original (pointers, maps, slices, chans, funcs, interfaces).
func aliasingType(info *types.Info, child ast.Node) bool {
	e, ok := child.(ast.Expr)
	if !ok {
		return true
	}
	t := info.TypeOf(e)
	if t == nil {
		return true
	}
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Map, *types.Slice, *types.Chan, *types.Signature, *types.Interface:
		return true
	}
	return false
}

// ReferencesObject reports whether the subtree mentions the object.
func ReferencesObject(info *types.Info, n ast.Node, obj types.Object) bool {
	found := false
	ast.Inspect(n, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if info.Uses[id] == obj || info.Defs[id] == obj {
				found = true
			}
		}
		return !found
	})
	return found
}
