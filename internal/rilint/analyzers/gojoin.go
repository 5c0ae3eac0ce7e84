package analyzers

import (
	"go/ast"
	"go/token"
	"go/types"

	"rimarket/internal/rilint"
)

// Gojoin requires every `go` statement in library packages to have a
// visible join path in its enclosing function declaration — the
// repo's pools are all joined (runPool's wg.Wait, ridserver's
// result channel), and a goroutine with no
// join is either a leak or an invisible lifetime contract. Accepted
// join evidence, in order:
//
//   - WaitGroup: the function calls wg.Wait on a sync.WaitGroup. If
//     the function calls wg.Add but never wg.Wait, that is its own
//     finding — the pool is built but never joined, which is exactly
//     what deleting a Wait during a refactor looks like;
//   - result channel: the spawned function literal sends on or closes
//     a channel that the enclosing function receives from (or ranges
//     over), so the spawner observes completion;
//   - ctx guard: the spawned literal checks ctx.Done()/ctx.Err() on a
//     context.Context, tying its lifetime to a cancellation the
//     caller owns.
//
// Sanctioned daemons (a pprof listener, a process-lifetime signal
// watcher) carry `//rilint:allow gojoin -- <reason>`; main packages
// are exempt (the process lifetime is theirs to spend).
var Gojoin = &rilint.Analyzer{
	Name: "gojoin",
	Doc:  "every go statement in library code needs a visible join path (WaitGroup Wait, result-channel receive, or ctx guard) or a //rilint:allow gojoin annotation",
	Run:  runGojoin,
}

func runGojoin(pass *rilint.Pass) error {
	if pass.Pkg.Name() == "main" {
		return nil
	}
	conc(pass) // keep the shared scan warm (exports frozen facts in declaration order)
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkGojoinFunc(pass, fd)
		}
	}
	return nil
}

func checkGojoinFunc(pass *rilint.Pass, fd *ast.FuncDecl) {
	var gos []*ast.GoStmt
	wgAdd, wgWait := false, false
	recvs := map[types.Object]bool{} // channels the function receives from or ranges over
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			gos = append(gos, n)
		case *ast.CallExpr:
			switch waitGroupMethod(pass, n) {
			case "Add":
				wgAdd = true
			case "Wait":
				wgWait = true
			}
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				if obj := chanObj(pass, n.X); obj != nil {
					recvs[obj] = true
				}
			}
		case *ast.RangeStmt:
			if obj := chanObj(pass, n.X); obj != nil {
				recvs[obj] = true
			}
		}
		return true
	})
	if len(gos) == 0 {
		return
	}
	if wgWait {
		return // the pool joins; every goroutine in this function rides it
	}
	if wgAdd {
		pass.Reportf(gos[0].Pos(),
			"%s builds a goroutine pool with WaitGroup.Add but never calls Wait; the pool is spawned and abandoned — join it before returning", funcName(fd))
		return
	}
	for _, g := range gos {
		if joinedByChannel(pass, g, recvs) || ctxGuarded(pass, g) {
			continue
		}
		pass.Reportf(g.Pos(),
			"go statement in %s has no visible join path (no WaitGroup Wait, no receive from a channel it signals, no ctx guard); join it or annotate //rilint:allow gojoin -- <reason>", funcName(fd))
	}
}

func funcName(fd *ast.FuncDecl) string {
	if fd.Recv != nil && len(fd.Recv.List) == 1 {
		if t := fd.Recv.List[0].Type; t != nil {
			if se, ok := t.(*ast.StarExpr); ok {
				if id, ok := se.X.(*ast.Ident); ok {
					return "(*" + id.Name + ")." + fd.Name.Name
				}
			}
			if id, ok := t.(*ast.Ident); ok {
				return id.Name + "." + fd.Name.Name
			}
		}
	}
	return fd.Name.Name
}

// waitGroupMethod returns the method name if call is a method call on
// a sync.WaitGroup (by value or pointer), else "".
func waitGroupMethod(pass *rilint.Pass, call *ast.CallExpr) string {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	fn, ok := pass.ObjectOf(sel.Sel).(*types.Func)
	if !ok {
		return ""
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if !isNamedType(t, "sync", "WaitGroup") {
		return ""
	}
	return fn.Name()
}

// chanObj resolves e to the object of a channel-typed identifier (the
// root of a selector chain counts), or nil.
func chanObj(pass *rilint.Pass, e ast.Expr) types.Object {
	t := pass.TypeOf(e)
	if t == nil {
		return nil
	}
	if _, ok := t.Underlying().(*types.Chan); !ok {
		return nil
	}
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		return pass.ObjectOf(x)
	case *ast.SelectorExpr:
		return pass.ObjectOf(x.Sel)
	}
	return nil
}

// joinedByChannel reports whether g spawns a function literal that
// sends on or closes a channel the enclosing function receives from.
func joinedByChannel(pass *rilint.Pass, g *ast.GoStmt, recvs map[types.Object]bool) bool {
	lit, ok := ast.Unparen(g.Call.Fun).(*ast.FuncLit)
	if !ok {
		return false
	}
	joined := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if joined {
			return false
		}
		switch n := n.(type) {
		case *ast.SendStmt:
			if obj := chanObj(pass, n.Chan); obj != nil && recvs[obj] {
				joined = true
			}
		case *ast.CallExpr:
			if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok && id.Name == "close" && len(n.Args) == 1 {
				if _, isBuiltin := pass.ObjectOf(id).(*types.Builtin); isBuiltin {
					if obj := chanObj(pass, n.Args[0]); obj != nil && recvs[obj] {
						joined = true
					}
				}
			}
		}
		return true
	})
	return joined
}

// ctxGuarded reports whether g spawns a function literal whose body
// consults ctx.Done() or ctx.Err() on a context.Context.
func ctxGuarded(pass *rilint.Pass, g *ast.GoStmt) bool {
	lit, ok := ast.Unparen(g.Call.Fun).(*ast.FuncLit)
	if !ok {
		return false
	}
	guarded := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if guarded {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok || (sel.Sel.Name != "Done" && sel.Sel.Name != "Err") {
			return true
		}
		if t := pass.TypeOf(sel.X); t != nil && isContextType(t) {
			guarded = true
		}
		return true
	})
	return guarded
}
