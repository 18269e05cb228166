package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// checkLockOrder reports two mutex fields (Type.field) one package takes in
// both orders: a potential deadlock. A→B is a Lock of B with A held in the
// same body, in statement order (a deferred Unlock keeps A held), or a call
// with A held to a same-package function whose own body locks B. Deeper or
// cross-package nesting is not seen (DESIGN.md lists the product mutexes).
var checkLockOrder = Check{
	Name: "lockorder",
	Doc:  "two named mutexes taken in both orders in one package, directly or one same-package call deep (potential deadlock)",
	Run:  runLockOrder,
}

// lockCalls visits a body's calls in order with their callee and the mutex
// class each locks or unlocks; deferred calls, goroutines and literals excluded.
func lockCalls(info *types.Info, body *ast.BlockStmt, visit func(call *ast.CallExpr, callee types.Object, class string, lock bool)) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit, *ast.DeferStmt, *ast.GoStmt:
			return false
		case *ast.CallExpr:
			fun, _ := n.Fun.(*ast.Ident)
			class := ""
			if sel, ok := n.Fun.(*ast.SelectorExpr); ok {
				fun = sel.Sel
				if mu := typeOf(info, sel.X); IsNamed(mu, "sync", "Mutex") || IsNamed(mu, "sync", "RWMutex") {
					if x, ok := sel.X.(*ast.SelectorExpr); ok && info.Selections[x] != nil && namedOf(info.Selections[x].Recv()) != nil {
						class = namedOf(info.Selections[x].Recv()).Obj().Name() + "." + x.Sel.Name
					}
				}
			}
			visit(n, info.Uses[fun], class, class != "" && (fun.Name == "Lock" || fun.Name == "RLock"))
		}
		return true
	})
}

func runLockOrder(pass *Pass) {
	info, bodies := pass.Pkg.Info, []*ast.BlockStmt(nil)
	decls := make(map[types.Object]*ast.BlockStmt)
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if fn, ok := n.(*ast.FuncDecl); ok && fn.Body != nil {
				bodies, decls[info.Defs[fn.Name]] = append(bodies, fn.Body), fn.Body
			} else if lit, ok := n.(*ast.FuncLit); ok {
				bodies = append(bodies, lit.Body)
			}
			return true
		})
	}
	edges := make(map[[2]string]token.Pos) // {held, locked} -> first witness
	for _, body := range bodies {
		held := make(map[string]bool)
		lockCalls(info, body, func(call *ast.CallExpr, callee types.Object, class string, lock bool) {
			takes := map[string]bool{class: lock} // a same-package callee: the classes its own body locks
			if decls[callee] != nil {
				lockCalls(info, decls[callee], func(_ *ast.CallExpr, _ types.Object, c string, l bool) { takes[c] = takes[c] || l })
			}
			for to, locks := range takes {
				for from, h := range held {
					if _, seen := edges[[2]string{from, to}]; locks && h && !seen && from != to {
						edges[[2]string{from, to}] = call.Pos()
					}
				}
			}
			held[class] = lock
		})
	}
	for e, pos := range edges {
		if _, back := edges[[2]string{e[1], e[0]}]; back {
			pass.Reportf(pos, "lock-order cycle: %s is locked with %s held, and elsewhere in the package %s with %s held: potential deadlock", e[1], e[0], e[0], e[1])
		}
	}
}
