package analyzers

import (
	"go/ast"
	"go/token"
	"go/types"

	"rimarket/internal/rilint"
)

// Atomicfield enforces all-or-nothing atomicity per struct field. A
// field is atomic if its declared type comes from sync/atomic
// (atomic.Int64, atomic.Bool, atomic.Pointer[T], an array of them) or
// if the package passes its address to a sync/atomic function
// anywhere. Once atomic, every access must stay atomic:
//
//   - an atomic-typed field may only be used through its methods
//     (Load/Store/Add/Swap/CompareAndSwap) or by taking its address —
//     copying or rebinding the value smuggles a plain read past the
//     memory model;
//   - a plain field used with atomic.AddInt64(&s.f, ...)-style calls
//     may not be read or written directly anywhere else in the
//     package — mixed access is exactly the race the snapshot-swap
//     and method-only obs counter conventions exist to prevent.
//
// The inventory is package-wide (the fact scan covers every file
// before any access is judged), so an atomic.AddInt64 in one file
// convicts a bare `s.f++` in another.
var Atomicfield = &rilint.Analyzer{
	Name: "atomicfield",
	Doc:  "a struct field accessed through sync/atomic (or of an atomic.* type) must never be read or written non-atomically anywhere in the package",
	Run:  runAtomicfield,
}

func runAtomicfield(pass *rilint.Pass) error {
	facts := conc(pass)
	if len(facts.atomicTyped) == 0 && len(facts.atomicOps) == 0 {
		return nil
	}
	for _, f := range pass.Files {
		inspectWithStack(f, func(n ast.Node, stack []ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			v := selectedField(pass, sel)
			if v == nil {
				return true
			}
			switch {
			case facts.atomicTyped[v]:
				if !atomicTypedUseOK(pass, sel, stack) {
					pass.Reportf(sel.Pos(),
						"atomic field %s.%s is used as a value here; it must only be accessed through its sync/atomic methods (Load/Store/Add/Swap/CompareAndSwap)",
						fieldOwner(v), v.Name())
				}
			default:
				if pos, atomic := facts.atomicOps[v]; atomic && !atomicOpUseOK(pass, stack) {
					pass.Reportf(sel.Pos(),
						"field %s.%s is accessed through sync/atomic elsewhere in this package (%s); this plain access races with it — use the atomic operations everywhere or nowhere",
						fieldOwner(v), v.Name(), pos)
				}
			}
			return true
		})
	}
	return nil
}

// selectedField resolves sel to the struct field it names, or nil.
func selectedField(pass *rilint.Pass, sel *ast.SelectorExpr) *types.Var {
	if s, ok := pass.TypesInfo.Selections[sel]; ok {
		if s.Kind() != types.FieldVal {
			return nil
		}
		return s.Obj().(*types.Var)
	}
	if v, ok := pass.ObjectOf(sel.Sel).(*types.Var); ok && v.IsField() {
		return v
	}
	return nil
}

// fieldOwner names the struct a field belongs to, best-effort, for
// diagnostics.
func fieldOwner(v *types.Var) string {
	if v.Pkg() == nil {
		return "?"
	}
	// The field's parent scope is not the named type, so recover the
	// owner by position: scan the package scope for a named struct
	// type that declares this exact object.
	scope := v.Pkg().Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok {
			continue
		}
		st, ok := tn.Type().Underlying().(*types.Struct)
		if !ok {
			continue
		}
		for i := 0; i < st.NumFields(); i++ {
			if st.Field(i) == v {
				return tn.Name()
			}
		}
	}
	return "(struct)"
}

// atomicTypedUseOK reports whether a selector naming an atomic-typed
// field appears in a sanctioned context: a method call on the field
// (possibly through an index expression, for arrays of atomics) or an
// address-of (the pointer's pointee is still operated on atomically).
func atomicTypedUseOK(pass *rilint.Pass, sel ast.Expr, stack []ast.Node) bool {
	cur := ast.Node(sel)
	for i := len(stack) - 1; i >= 0; i-- {
		switch p := stack[i].(type) {
		case *ast.ParenExpr:
			cur = p
			continue
		case *ast.IndexExpr:
			if p.X == cur {
				cur = p
				continue
			}
			return false // the field is the index, not the operand: a plain read
		case *ast.SelectorExpr:
			if p.X != cur {
				return false
			}
			_, isMethod := pass.ObjectOf(p.Sel).(*types.Func)
			return isMethod
		case *ast.UnaryExpr:
			return p.Op == token.AND && p.X == cur
		default:
			return false
		}
	}
	return false
}

// atomicOpUseOK reports whether the selector's context is
// `&x.f` handed to a sync/atomic call.
func atomicOpUseOK(pass *rilint.Pass, stack []ast.Node) bool {
	// stack[len-1] is the selector's parent. Expect UnaryExpr(&) then
	// (possibly parenthesized) a sync/atomic CallExpr argument.
	i := len(stack) - 1
	for i >= 0 {
		if _, ok := stack[i].(*ast.ParenExpr); ok {
			i--
			continue
		}
		break
	}
	if i < 0 {
		return false
	}
	un, ok := stack[i].(*ast.UnaryExpr)
	if !ok || un.Op != token.AND {
		return false
	}
	for i--; i >= 0; i-- {
		if _, ok := stack[i].(*ast.ParenExpr); ok {
			continue
		}
		call, ok := stack[i].(*ast.CallExpr)
		if !ok {
			return false
		}
		fn := calleeFunc(pass, call)
		return fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "sync/atomic"
	}
	return false
}

// inspectWithStack is ast.Inspect with the ancestor stack exposed:
// stack holds every ancestor of n, outermost first, excluding n.
func inspectWithStack(root ast.Node, fn func(n ast.Node, stack []ast.Node) bool) {
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		keep := fn(n, stack)
		if keep {
			// Pruned nodes get no f(nil) callback, so push only when
			// Inspect will descend (and therefore pop).
			stack = append(stack, n)
		}
		return keep
	})
}
