package lint

import (
	"go/ast"
	"go/token"
)

// Summary is a per-function abstraction computed to a fixpoint over the call
// graph: the lattice is (set of named lock classes) × bool × bool, ordered
// by inclusion, and the transfer function is set union along Call, Defer and
// Dispatch edges (Go edges run concurrently, Ref edges may never run — see
// DESIGN.md for the deliberate approximations).
type Summary struct {
	// Acquires maps every named lock class this function may acquire —
	// directly or through any synchronous callee — to one witness
	// acquisition position.
	Acquires map[LockClass]token.Pos
	// ReachesRPC reports whether a Transport.Call-shaped primitive is
	// reachable synchronously from this function.
	ReachesRPC bool
	// ReachesEndless reports whether an endless loop (see
	// FuncNode.EndlessLoop) is reachable synchronously from this function.
	ReachesEndless bool
}

// ComputeSummaries initializes each node's summary from its direct facts and
// iterates the union transfer function to a fixpoint. The lattice is finite
// (lock classes are bounded by the module's source) and the transfer
// function monotone, so termination is by the usual Kleene argument; the
// iteration order (sorted node IDs) only affects speed, not the result.
func (g *CallGraph) ComputeSummaries() {
	nodes := g.SortedNodes()
	for _, n := range nodes {
		n.Sum = Summary{Acquires: make(map[LockClass]token.Pos)}
		for _, a := range n.Acquired {
			if !a.Class.Named() {
				continue
			}
			if _, ok := n.Sum.Acquires[a.Class]; !ok {
				n.Sum.Acquires[a.Class] = a.Pos
			}
		}
		n.Sum.ReachesRPC = n.IsRPCPrim
		n.Sum.ReachesEndless = n.EndlessLoop
	}
	for changed := true; changed; {
		changed = false
		for _, n := range nodes {
			for _, e := range n.Out {
				if !summaryKinds[e.Kind] {
					continue
				}
				c := e.Callee
				for class, pos := range c.Sum.Acquires {
					if _, ok := n.Sum.Acquires[class]; !ok {
						n.Sum.Acquires[class] = pos
						changed = true
					}
				}
				if c.Sum.ReachesRPC && !n.Sum.ReachesRPC {
					n.Sum.ReachesRPC = true
					changed = true
				}
				if c.Sum.ReachesEndless && !n.Sum.ReachesEndless {
					n.Sum.ReachesEndless = true
					changed = true
				}
			}
		}
	}
}

// terminates reports whether a statement list ends in a statement that never
// falls through (return, panic, continue, break, goto). Shared by the
// graph walker's branch merging.
func terminates(stmts []ast.Stmt) bool {
	if len(stmts) == 0 {
		return false
	}
	switch last := stmts[len(stmts)-1].(type) {
	case *ast.ReturnStmt, *ast.BranchStmt:
		return true
	case *ast.ExprStmt:
		if call, ok := last.X.(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" {
				return true
			}
		}
	}
	return false
}
