package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// This file builds canonvet's module-wide call graph: the substrate for the
// interprocedural checks (lockorder, lockheldrpc2, goroutineleak,
// nodeadline). Nodes are functions — declared functions, methods, and
// function literals — and edges record how control may flow between them.
//
// Cross-unit identity. The loader type-checks every analysis unit
// independently, so the same declared function is represented by *different*
// go/types objects depending on which unit observed it (a unit sees its own
// package fully checked, and other packages through memoized
// IgnoreFuncBodies imports). The graph therefore keys nodes by a stable
// symbol ID string — types.Func.FullName() of the Origin — rather than by
// object pointer, and compares signatures structurally (by fully-qualified
// type string) where go/types would demand pointer identity.

// EdgeKind classifies how a caller reaches a callee.
type EdgeKind int

const (
	// EdgeCall is a plain synchronous call (or a funclit invoked where it
	// is written).
	EdgeCall EdgeKind = iota
	// EdgeDefer is a deferred call: it still executes within the caller's
	// activation, but after the body (held-lock state at the defer site is
	// not assumed to persist to execution).
	EdgeDefer
	// EdgeGo is a goroutine spawn: concurrent, inherits no locks.
	EdgeGo
	// EdgeRef records a function value taken without being called (stored,
	// passed as argument). Summaries do not propagate across Ref edges.
	EdgeRef
	// EdgeDispatch links an interface method to a module-local concrete
	// implementation (conservative: every loosely-matching implementation).
	EdgeDispatch
)

// String implements fmt.Stringer for DOT labels and diagnostics.
func (k EdgeKind) String() string {
	switch k {
	case EdgeCall:
		return "call"
	case EdgeDefer:
		return "defer"
	case EdgeGo:
		return "go"
	case EdgeRef:
		return "ref"
	case EdgeDispatch:
		return "dispatch"
	}
	return "?"
}

// LockClass identifies a mutex by declaration site rather than by instance:
// a named struct field (Pkg, Type, Field), a package-level var (Pkg, "",
// Field), or a function-local mutex (only Field set). Only named classes
// (Pkg != "") participate in the lock-order graph; locals still count as
// "held" for lockheldrpc2.
type LockClass struct {
	Pkg   string
	Type  string
	Field string
}

// Named reports whether the class is stable across functions (a struct field
// or package var, not a local).
func (c LockClass) Named() bool { return c.Pkg != "" }

// String renders the class for diagnostics: pkg.Type.field, pkg.var, or
// local:name.
func (c LockClass) String() string {
	short := c.Pkg
	if i := strings.LastIndexByte(short, '/'); i >= 0 {
		short = short[i+1:]
	}
	switch {
	case c.Pkg == "":
		return "local:" + c.Field
	case c.Type == "":
		return short + "." + c.Field
	default:
		return short + "." + c.Type + "." + c.Field
	}
}

// HeldLock is one mutex held at a program point.
type HeldLock struct {
	Class LockClass
	Expr  string // source-ish rendering of the lock operand, e.g. "n.mu"
	RLock bool
	Pos   token.Pos
}

// Acquisition records one direct Lock/RLock call inside a function, together
// with the locks already held at that point (the lock-order evidence).
type Acquisition struct {
	Class LockClass
	Expr  string
	RLock bool
	Pos   token.Pos
	Held  []HeldLock
}

// FuncNode is one function in the call graph.
type FuncNode struct {
	// ID is the stable symbol ID: types.Func.FullName() for declared
	// functions/methods, "lit@file:line:col" for function literals.
	ID string
	// Name is a short human name ("netnode.(*Node).Start", "func literal").
	Name string
	// Ident is the bare declared identifier ("Start", "main"); empty for
	// function literals.
	Ident string
	// Pkg is the import path of the unit the body lives in.
	Pkg string
	// Pos is the declaration (or literal) position.
	Pos token.Pos
	// InTestFile marks bodies declared in _test.go files.
	InTestFile bool

	// IsIfaceMethod marks a node standing for an interface method; its body
	// is unknown and Dispatch edges point at candidate implementations.
	IsIfaceMethod bool
	// iface, when IsIfaceMethod, is the interface type (from whichever unit
	// first mentioned it) and mname the method name, for dispatch matching.
	iface types.Type
	mname string

	// IsRPCPrim marks a Transport.Call-shaped wire primitive: a function or
	// method named Call whose first parameter is context.Context.
	IsRPCPrim bool
	// DirectTimed marks bodies that call context.WithTimeout/WithDeadline
	// (used path-insensitively by nodeadline).
	DirectTimed bool
	// EndlessLoop marks bodies containing a loop with no reachable exit
	// (for {} or for range <-chan time.Time with no return/break/panic).
	EndlessLoop bool
	// StopsOnSignal marks endless-loop bodies whose loop still selects on a
	// stop signal (ctx.Done / a done channel) — set only alongside
	// EndlessLoop and only when that select case escapes the loop, so it is
	// informational for diagnostics rather than a verdict.
	StopsOnSignal bool

	// Acquired are the body's direct Lock/RLock sites.
	Acquired []Acquisition

	// Out and In are the adjacency lists.
	Out []*Edge
	In  []*Edge

	// Sum is filled by ComputeSummaries.
	Sum Summary
}

// Edge is one caller→callee relationship observed at a source position.
type Edge struct {
	Caller *FuncNode
	Callee *FuncNode
	Kind   EdgeKind
	Pos    token.Pos
	// Held are the locks lexically held at the edge's site (Call edges
	// only; Defer/Go/Ref/Dispatch edges carry none — see DESIGN.md).
	Held []HeldLock
}

// CallGraph is the module-wide graph plus the config and fileset needed to
// render diagnostics from it.
type CallGraph struct {
	Cfg   *Config
	Fset  *token.FileSet
	Nodes map[string]*FuncNode

	// ifaceNodes indexes the interface-method nodes for dispatch resolution.
	ifaceNodes []*FuncNode
}

// node returns (creating if needed) the node with the given ID.
func (g *CallGraph) node(id string) *FuncNode {
	if n, ok := g.Nodes[id]; ok {
		return n
	}
	n := &FuncNode{ID: id, Name: id}
	g.Nodes[id] = n
	return n
}

// edge appends one edge to both adjacency lists.
func (g *CallGraph) edge(caller, callee *FuncNode, kind EdgeKind, pos token.Pos, held []HeldLock) {
	e := &Edge{Caller: caller, Callee: callee, Kind: kind, Pos: pos, Held: held}
	caller.Out = append(caller.Out, e)
	callee.In = append(callee.In, e)
}

// funcID returns the stable symbol ID of a declared function or method.
func funcID(fn *types.Func) string {
	if o := fn.Origin(); o != nil {
		fn = o
	}
	return fn.FullName()
}

// shortFuncName renders fn for humans: pkg.Func or pkg.(*Type).Method with
// the package path shortened to its last element.
func shortFuncName(fn *types.Func) string {
	full := funcID(fn)
	// FullName uses full import paths; trim each path to its base.
	for {
		i := strings.Index(full, "github.com/")
		if i < 0 {
			break
		}
		j := i
		for j < len(full) && full[j] != ')' && full[j] != ' ' {
			if full[j] == '.' && strings.LastIndexByte(full[i:j], '/') >= 0 {
				break
			}
			j++
		}
		path := full[i:j]
		if k := strings.LastIndexByte(path, '/'); k >= 0 {
			full = full[:i] + path[k+1:] + full[j:]
		} else {
			break
		}
	}
	return full
}

// BuildCallGraph constructs the graph over every loaded package: one walk
// per function body creating nodes, lock-annotated edges, and the per-node
// direct facts, followed by a dispatch pass linking interface methods to
// module-local implementations.
func BuildCallGraph(cfg *Config, fset *token.FileSet, pkgs []*Package) *CallGraph {
	g := &CallGraph{Cfg: cfg, Fset: fset, Nodes: make(map[string]*FuncNode)}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			file := fset.Position(f.Pos()).Filename
			inTest := strings.HasSuffix(file, "_test.go")
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, _ := pkg.Info.Defs[fd.Name].(*types.Func)
				if obj == nil {
					continue
				}
				n := g.node(funcID(obj))
				n.Name = shortFuncName(obj)
				n.Ident = obj.Name()
				n.Pkg = pkg.Path
				n.Pos = fd.Pos()
				n.InTestFile = inTest
				n.IsRPCPrim = isRPCPrimSig(obj.Name(), obj.Type())
				w := &graphWalker{g: g, pkg: pkg, fn: n, inTest: inTest}
				w.walkBody(fd.Body)
			}
		}
	}
	g.resolveDispatch(pkgs)
	return g
}

// isRPCPrimSig reports the Transport.Call shape: name "Call", first
// parameter context.Context.
func isRPCPrimSig(name string, t types.Type) bool {
	if name != "Call" {
		return false
	}
	sig, ok := t.(*types.Signature)
	if !ok || sig.Params().Len() < 1 {
		return false
	}
	return IsNamed(sig.Params().At(0).Type(), "context", "Context")
}

// graphWalker walks one function body, tracking lexically held locks (the
// same conservative discipline the v1 lexical check used: fall-through
// unlocks lower the set, terminating branches keep the caller's set, spawned
// goroutines and function literals inherit nothing).
type graphWalker struct {
	g      *CallGraph
	pkg    *Package
	fn     *FuncNode
	inTest bool
}

// walkBody drives the statement walk and derives the body-level facts.
func (w *graphWalker) walkBody(body *ast.BlockStmt) {
	w.stmts(body.List, nil)
}

// snapshot copies the held set for storage on an edge or acquisition.
func snapshot(held []HeldLock) []HeldLock {
	if len(held) == 0 {
		return nil
	}
	out := make([]HeldLock, len(held))
	copy(out, held)
	return out
}

// exprString renders a lock operand compactly (best effort).
func exprString(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.Ident:
		return x.Name
	case *ast.SelectorExpr:
		return exprString(x.X) + "." + x.Sel.Name
	case *ast.ParenExpr:
		return exprString(x.X)
	case *ast.StarExpr:
		return "*" + exprString(x.X)
	case *ast.IndexExpr:
		return exprString(x.X) + "[...]"
	case *ast.CallExpr:
		return exprString(x.Fun) + "(...)"
	}
	return "?"
}

// lockOp classifies e as a Lock/RLock/Unlock/RUnlock call on a sync.Mutex or
// sync.RWMutex, returning the operand and class.
func (w *graphWalker) lockOp(e ast.Expr) (op string, operand ast.Expr, class LockClass, ok bool) {
	call, isCall := e.(*ast.CallExpr)
	if !isCall {
		return "", nil, LockClass{}, false
	}
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return "", nil, LockClass{}, false
	}
	switch sel.Sel.Name {
	case "Lock", "RLock", "Unlock", "RUnlock":
	default:
		return "", nil, LockClass{}, false
	}
	t := typeOf(w.pkg.Info, sel.X)
	if t != nil {
		if !IsNamed(t, "sync", "Mutex") && !IsNamed(t, "sync", "RWMutex") {
			return "", nil, LockClass{}, false
		}
	} else {
		// Type info incomplete: fall back to the v1 name heuristic.
		name := ""
		switch x := sel.X.(type) {
		case *ast.SelectorExpr:
			name = x.Sel.Name
		case *ast.Ident:
			name = x.Name
		}
		if name != "mu" {
			return "", nil, LockClass{}, false
		}
	}
	return sel.Sel.Name, sel.X, w.classify(sel.X), true
}

// classify maps a lock operand to its LockClass.
func (w *graphWalker) classify(e ast.Expr) LockClass {
	switch x := e.(type) {
	case *ast.ParenExpr:
		return w.classify(x.X)
	case *ast.SelectorExpr:
		// Field selector: class by the owning named struct type.
		if named := namedOf(typeOf(w.pkg.Info, x.X)); named != nil && named.Obj() != nil {
			pkg := ""
			if named.Obj().Pkg() != nil {
				pkg = named.Obj().Pkg().Path()
			}
			return LockClass{Pkg: pkg, Type: named.Obj().Name(), Field: x.Sel.Name}
		}
		// Qualified package var: pkg.mu.
		if id, okID := x.X.(*ast.Ident); okID {
			if pn, okPkg := w.pkg.Info.Uses[id].(*types.PkgName); okPkg {
				return LockClass{Pkg: pn.Imported().Path(), Field: x.Sel.Name}
			}
		}
		return LockClass{Field: x.Sel.Name}
	case *ast.Ident:
		if obj := w.pkg.Info.Uses[x]; obj != nil {
			if v, okVar := obj.(*types.Var); okVar && v.Pkg() != nil &&
				v.Parent() == v.Pkg().Scope() {
				// Package-level mutex var.
				return LockClass{Pkg: v.Pkg().Path(), Field: x.Name}
			}
		}
		return LockClass{Field: x.Name}
	}
	return LockClass{Field: exprString(e)}
}

// acquire pushes a lock and records the acquisition.
func (w *graphWalker) acquire(held []HeldLock, op string, operand ast.Expr, class LockClass, pos token.Pos) []HeldLock {
	h := HeldLock{Class: class, Expr: exprString(operand), RLock: op == "RLock", Pos: pos}
	w.fn.Acquired = append(w.fn.Acquired, Acquisition{
		Class: class, Expr: h.Expr, RLock: h.RLock, Pos: pos, Held: snapshot(held),
	})
	return append(held, h)
}

// release pops the innermost held lock matching the operand (by rendered
// expression, falling back to class).
func release(held []HeldLock, operand ast.Expr, class LockClass) []HeldLock {
	es := exprString(operand)
	for i := len(held) - 1; i >= 0; i-- {
		if held[i].Expr == es || held[i].Class == class {
			return append(held[:i:i], held[i+1:]...)
		}
	}
	return held
}

// stmts walks a statement list with the held-lock discipline of the v1
// lexical scan and returns the held set after the list.
func (w *graphWalker) stmts(list []ast.Stmt, held []HeldLock) []HeldLock {
	branch := func(body []ast.Stmt) {
		after := w.stmts(body, snapshot(held))
		if !terminates(body) && len(after) < len(held) {
			held = after
		}
	}
	for _, s := range list {
		switch st := s.(type) {
		case *ast.ExprStmt:
			if op, operand, class, ok := w.lockOp(st.X); ok {
				switch op {
				case "Lock", "RLock":
					held = w.acquire(held, op, operand, class, st.X.Pos())
				default:
					held = release(held, operand, class)
				}
				continue
			}
			w.expr(st.X, held)
		case *ast.DeferStmt:
			if op, _, _, ok := w.lockOp(st.Call); ok {
				_ = op // defer mu.Unlock() keeps the region held; defer mu.Lock() is nonsense — both leave held unchanged.
				continue
			}
			w.call(st.Call, held, EdgeDefer)
			for _, arg := range st.Call.Args {
				w.expr(arg, held)
			}
		case *ast.GoStmt:
			w.call(st.Call, held, EdgeGo)
			for _, arg := range st.Call.Args {
				w.expr(arg, held)
			}
		case *ast.AssignStmt:
			for _, rhs := range st.Rhs {
				w.expr(rhs, held)
			}
			for _, lhs := range st.Lhs {
				w.expr(lhs, held)
			}
		case *ast.ReturnStmt:
			for _, r := range st.Results {
				w.expr(r, held)
			}
		case *ast.DeclStmt:
			if gd, ok := st.Decl.(*ast.GenDecl); ok {
				for _, spec := range gd.Specs {
					if vs, ok := spec.(*ast.ValueSpec); ok {
						for _, v := range vs.Values {
							w.expr(v, held)
						}
					}
				}
			}
		case *ast.IfStmt:
			if st.Init != nil {
				held = w.stmts([]ast.Stmt{st.Init}, held)
			}
			w.expr(st.Cond, held)
			branch(st.Body.List)
			if st.Else != nil {
				switch e := st.Else.(type) {
				case *ast.BlockStmt:
					branch(e.List)
				default:
					branch([]ast.Stmt{st.Else})
				}
			}
		case *ast.BlockStmt:
			held = w.stmts(st.List, held)
		case *ast.LabeledStmt:
			held = w.stmts([]ast.Stmt{st.Stmt}, held)
		case *ast.ForStmt:
			if st.Init != nil {
				held = w.stmts([]ast.Stmt{st.Init}, held)
			}
			if st.Cond != nil {
				w.expr(st.Cond, held)
			}
			if st.Post != nil {
				w.stmts([]ast.Stmt{st.Post}, snapshot(held))
			}
			w.stmts(st.Body.List, snapshot(held))
			if st.Cond == nil && !loopEscapes(st.Body) {
				w.fn.EndlessLoop = true
				w.fn.StopsOnSignal = w.fn.StopsOnSignal || loopHasStopCase(w.pkg.Info, st.Body)
			}
		case *ast.RangeStmt:
			w.expr(st.X, held)
			w.stmts(st.Body.List, snapshot(held))
			if isTimeChan(typeOf(w.pkg.Info, st.X)) && !loopEscapes(st.Body) {
				// for range ticker.C / time.Tick(...): the channel never
				// closes, so the loop is as endless as for {}.
				w.fn.EndlessLoop = true
				w.fn.StopsOnSignal = w.fn.StopsOnSignal || loopHasStopCase(w.pkg.Info, st.Body)
			}
		case *ast.SwitchStmt:
			if st.Init != nil {
				held = w.stmts([]ast.Stmt{st.Init}, held)
			}
			if st.Tag != nil {
				w.expr(st.Tag, held)
			}
			for _, clause := range st.Body.List {
				if cc, ok := clause.(*ast.CaseClause); ok {
					w.stmts(cc.Body, snapshot(held))
				}
			}
		case *ast.TypeSwitchStmt:
			for _, clause := range st.Body.List {
				if cc, ok := clause.(*ast.CaseClause); ok {
					w.stmts(cc.Body, snapshot(held))
				}
			}
		case *ast.SelectStmt:
			for _, clause := range st.Body.List {
				if cc, ok := clause.(*ast.CommClause); ok {
					if cc.Comm != nil {
						w.stmts([]ast.Stmt{cc.Comm}, snapshot(held))
					}
					w.stmts(cc.Body, snapshot(held))
				}
			}
		case *ast.SendStmt:
			w.expr(st.Chan, held)
			w.expr(st.Value, held)
		case *ast.IncDecStmt:
			w.expr(st.X, held)
		}
	}
	return held
}

// expr walks an expression tree emitting edges for every call, function
// literal, and function-value reference it contains. Function literals are
// walked as their own nodes (they inherit no lexical lock state).
func (w *graphWalker) expr(e ast.Expr, held []HeldLock) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			lit := w.litNode(x)
			w.g.edge(w.fn, lit, EdgeRef, x.Pos(), nil)
			return false
		case *ast.CallExpr:
			if op, _, _, ok := w.lockOp(x); ok && (op == "Lock" || op == "RLock") {
				// A lock call in expression position (rare; e.g. inside a
				// closure arg) — treated as opaque, not an acquisition.
				return true
			}
			w.call(x, held, EdgeCall)
			// Continue into arguments (nested calls, literals); the callee
			// expression itself was consumed by call().
			for _, arg := range x.Args {
				w.expr(arg, held)
			}
			if _, isLit := ast.Unparen(x.Fun).(*ast.FuncLit); !isLit {
				if sel, ok := ast.Unparen(x.Fun).(*ast.SelectorExpr); ok {
					w.expr(sel.X, held)
				}
			}
			return false
		case *ast.SelectorExpr:
			// Method value taken without call: x.Method stored or passed.
			if fn, ok := w.pkg.Info.Uses[x.Sel].(*types.Func); ok {
				if callee := w.calleeNode(fn); callee != nil {
					w.g.edge(w.fn, callee, EdgeRef, x.Pos(), nil)
				}
			}
			w.expr(x.X, held)
			return false
		case *ast.Ident:
			if fn, ok := w.pkg.Info.Uses[x].(*types.Func); ok {
				if callee := w.calleeNode(fn); callee != nil {
					w.g.edge(w.fn, callee, EdgeRef, x.Pos(), nil)
				}
			}
			return false
		}
		return true
	})
}

// call resolves one call expression to a callee node and emits an edge of
// the given kind. Unresolvable callees (func-typed variables, builtins,
// conversions) emit nothing — a documented under-approximation.
func (w *graphWalker) call(call *ast.CallExpr, held []HeldLock, kind EdgeKind) {
	heldCopy := snapshot(held)
	if kind != EdgeCall {
		heldCopy = nil // Defer/Go edges execute outside the lexical region.
	}
	fun := ast.Unparen(call.Fun)
	w.markTimed(call)
	switch fn := fun.(type) {
	case *ast.FuncLit:
		lit := w.litNode(fn)
		w.g.edge(w.fn, lit, kind, call.Pos(), heldCopy)
		return
	case *ast.Ident:
		if obj, ok := w.pkg.Info.Uses[fn].(*types.Func); ok {
			if callee := w.calleeNode(obj); callee != nil {
				w.g.edge(w.fn, callee, kind, call.Pos(), heldCopy)
			}
		}
		return
	case *ast.SelectorExpr:
		var obj *types.Func
		if selInfo, ok := w.pkg.Info.Selections[fn]; ok {
			obj, _ = selInfo.Obj().(*types.Func)
		} else if use, ok := w.pkg.Info.Uses[fn.Sel].(*types.Func); ok {
			obj = use // qualified call: pkg.Func
		}
		if obj == nil {
			return
		}
		if callee := w.calleeNode(obj); callee != nil {
			w.g.edge(w.fn, callee, kind, call.Pos(), heldCopy)
		}
	}
}

// markTimed flags the enclosing function when the call creates a deadline.
func (w *graphWalker) markTimed(call *ast.CallExpr) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	if sel.Sel.Name != "WithTimeout" && sel.Sel.Name != "WithDeadline" {
		return
	}
	if id, ok := sel.X.(*ast.Ident); ok {
		if pn, ok := w.pkg.Info.Uses[id].(*types.PkgName); ok && pn.Imported().Path() == "context" {
			w.fn.DirectTimed = true
		}
	}
}

// calleeNode maps a resolved *types.Func to its graph node, creating
// interface-method placeholder nodes on first sight. Standard-library
// callees are represented too (their bodies are never walked, so they stay
// leaves) — except context/sync/fmt-style noise, which is dropped to keep
// the graph small.
func (w *graphWalker) calleeNode(fn *types.Func) *FuncNode {
	pkg := fn.Pkg()
	if pkg == nil {
		return nil // builtins (error.Error on unnamed types, etc.)
	}
	inModule := pkg.Path() == w.g.Cfg.ModulePath ||
		strings.HasPrefix(pkg.Path(), w.g.Cfg.ModulePath+"/")
	sig, _ := fn.Type().(*types.Signature)
	ifaceMethod := false
	var ifaceType types.Type
	if sig != nil && sig.Recv() != nil {
		if rt := sig.Recv().Type(); rt != nil {
			if _, ok := rt.Underlying().(*types.Interface); ok {
				ifaceMethod = true
				ifaceType = rt
			}
		}
	}
	if !inModule && !ifaceMethod {
		// Out-of-module concrete callee: only RPC-prim-shaped ones matter
		// (none exist in the stdlib); drop the rest to keep the graph lean.
		return nil
	}
	id := funcID(fn)
	n, existed := w.g.Nodes[id], false
	if n != nil {
		existed = true
	} else {
		n = w.g.node(id)
	}
	if !existed {
		n.Name = shortFuncName(fn)
		n.Ident = fn.Name()
		n.Pos = fn.Pos()
		if fn.Pkg() != nil {
			n.Pkg = fn.Pkg().Path()
		}
		n.IsRPCPrim = isRPCPrimSig(fn.Name(), fn.Type())
		if ifaceMethod {
			n.IsIfaceMethod = true
			n.iface = ifaceType
			n.mname = fn.Name()
			w.g.ifaceNodes = append(w.g.ifaceNodes, n)
		}
	}
	return n
}

// litNode creates the node for a function literal and walks its body as an
// independent region.
func (w *graphWalker) litNode(lit *ast.FuncLit) *FuncNode {
	pos := w.g.Fset.Position(lit.Pos())
	id := fmt.Sprintf("lit@%s:%d:%d", pos.Filename, pos.Line, pos.Column)
	if n, ok := w.g.Nodes[id]; ok {
		return n
	}
	n := w.g.node(id)
	n.Name = fmt.Sprintf("func literal (%s:%d)", shortPath(pos.Filename), pos.Line)
	n.Pkg = w.pkg.Path
	n.Pos = lit.Pos()
	n.InTestFile = w.inTest
	lw := &graphWalker{g: w.g, pkg: w.pkg, fn: n, inTest: w.inTest}
	if lit.Body != nil {
		lw.walkBody(lit.Body)
	}
	return n
}

// shortPath trims a filename to its last two path elements.
func shortPath(p string) string {
	parts := strings.Split(p, "/")
	if len(parts) <= 2 {
		return p
	}
	return strings.Join(parts[len(parts)-2:], "/")
}

// loopEscapes reports whether a loop body contains any statement that can
// leave the loop or the function: return, break (any), goto, panic, or
// os.Exit/log.Fatal-shaped calls. Nested function literals are opaque.
func loopEscapes(body *ast.BlockStmt) bool {
	escapes := false
	ast.Inspect(body, func(n ast.Node) bool {
		if escapes {
			return false
		}
		switch x := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.ForStmt, *ast.RangeStmt:
			// break inside a nested loop doesn't escape this one, but a
			// return still does; keep walking and only trust returns below
			// nested loops.
			return true
		case *ast.ReturnStmt:
			escapes = true
		case *ast.BranchStmt:
			if x.Tok.String() == "break" || x.Tok.String() == "goto" {
				// Conservative: any break may target this loop (labels not
				// resolved). Prefer missing a leak to inventing one.
				escapes = true
			}
		case *ast.CallExpr:
			switch f := x.Fun.(type) {
			case *ast.Ident:
				if f.Name == "panic" {
					escapes = true
				}
			case *ast.SelectorExpr:
				if f.Sel.Name == "Exit" || f.Sel.Name == "Fatal" || f.Sel.Name == "Fatalf" {
					escapes = true
				}
			}
		}
		return true
	})
	return escapes
}

// loopHasStopCase reports whether the loop body selects/receives on a
// context.Done() channel or a channel whose name suggests a stop signal.
func loopHasStopCase(info *types.Info, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		ue, ok := n.(*ast.UnaryExpr)
		if !ok || ue.Op != token.ARROW {
			return true
		}
		switch x := ast.Unparen(ue.X).(type) {
		case *ast.CallExpr:
			if sel, ok := x.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Done" {
				found = true
			}
		case *ast.Ident:
			if stopName(x.Name) {
				found = true
			}
		case *ast.SelectorExpr:
			if stopName(x.Sel.Name) {
				found = true
			}
		}
		return true
	})
	return found
}

// stopName matches conventional stop-channel names.
func stopName(s string) bool {
	l := strings.ToLower(s)
	return strings.Contains(l, "stop") || strings.Contains(l, "done") ||
		strings.Contains(l, "quit") || strings.Contains(l, "close")
}

// isTimeChan reports whether t is a receive-capable channel of time.Time
// (time.Ticker.C, time.Tick results — channels that never close).
func isTimeChan(t types.Type) bool {
	if t == nil {
		return false
	}
	ch, ok := t.Underlying().(*types.Chan)
	if !ok || ch.Dir() == types.SendOnly {
		return false
	}
	return IsNamed(ch.Elem(), "time", "Time")
}

// resolveDispatch links every interface-method node to the module-local
// concrete methods that may stand behind it. Matching is structural — same
// method names with identical fully-qualified signature strings — because
// types.Implements demands pointer-identical named types, which separately
// type-checked units do not share.
func (g *CallGraph) resolveDispatch(pkgs []*Package) {
	if len(g.ifaceNodes) == 0 {
		return
	}
	type concrete struct {
		named *types.Named
		pkg   *Package
	}
	var all []concrete
	seen := make(map[string]bool)
	for _, pkg := range pkgs {
		if pkg.Types == nil {
			continue
		}
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			if _, isIface := named.Underlying().(*types.Interface); isIface {
				continue
			}
			key := pkg.Path + "." + name
			if seen[key] {
				continue
			}
			seen[key] = true
			all = append(all, concrete{named: named, pkg: pkg})
		}
	}
	for _, ifn := range g.ifaceNodes {
		iface, ok := ifn.iface.Underlying().(*types.Interface)
		if !ok {
			continue
		}
		for _, c := range all {
			if !implementsLoose(c.named, iface) {
				continue
			}
			// Find the concrete method matching the interface method name.
			m := lookupMethod(c.named, ifn.mname)
			if m == nil {
				continue
			}
			id := funcID(m)
			callee, ok := g.Nodes[id]
			if !ok {
				continue // body not in the loaded set
			}
			g.edge(ifn, callee, EdgeDispatch, ifn.Pos, nil)
		}
	}
}

// lookupMethod finds a named type's method (pointer receiver included) by
// name, embedded promotions included.
func lookupMethod(named *types.Named, name string) *types.Func {
	obj, _, _ := types.LookupFieldOrMethod(types.NewPointer(named), true, named.Obj().Pkg(), name)
	fn, _ := obj.(*types.Func)
	return fn
}

// sigString renders a signature with full package paths, receiver excluded.
func sigString(sig *types.Signature) string {
	noRecv := types.NewSignatureType(nil, nil, nil, sig.Params(), sig.Results(), sig.Variadic())
	return types.TypeString(noRecv, func(p *types.Package) string { return p.Path() })
}

// implementsLoose reports whether the named type (or its pointer) provides
// every method of iface with a structurally identical signature. It is the
// string-based stand-in for types.Implements across analysis units.
func implementsLoose(named *types.Named, iface *types.Interface) bool {
	if iface.NumMethods() == 0 {
		return false // interface{} matches everything; never dispatch on it
	}
	for i := 0; i < iface.NumMethods(); i++ {
		im := iface.Method(i)
		cm := lookupMethod(named, im.Name())
		if cm == nil {
			return false
		}
		is, iok := im.Type().(*types.Signature)
		cs, cok := cm.Type().(*types.Signature)
		if !iok || !cok || sigString(is) != sigString(cs) {
			return false
		}
	}
	return true
}

// SortedNodes returns the nodes sorted by ID for deterministic iteration.
func (g *CallGraph) SortedNodes() []*FuncNode {
	nodes := make([]*FuncNode, 0, len(g.Nodes))
	for _, n := range g.Nodes {
		nodes = append(nodes, n)
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i].ID < nodes[j].ID })
	return nodes
}

// frame renders one call-chain frame for diagnostics: "name (file:line)".
func (g *CallGraph) frame(n *FuncNode, pos token.Pos) string {
	p := g.Fset.Position(pos)
	if !p.IsValid() {
		return n.Name
	}
	return fmt.Sprintf("%s (%s:%d)", n.Name, shortPath(p.Filename), p.Line)
}

// Chain returns the call-chain evidence from start to the first node
// satisfying target, following the given edge kinds (BFS, so the chain is
// shortest). The returned frames are outermost-first; nil when unreachable.
func (g *CallGraph) Chain(start *FuncNode, kinds map[EdgeKind]bool, target func(*FuncNode) bool) []string {
	type hop struct {
		node *FuncNode
		via  *Edge
		prev *hop
	}
	if target(start) {
		return []string{g.frame(start, start.Pos)}
	}
	visited := map[*FuncNode]bool{start: true}
	queue := []*hop{{node: start}}
	for len(queue) > 0 {
		h := queue[0]
		queue = queue[1:]
		for _, e := range h.node.Out {
			if !kinds[e.Kind] || visited[e.Callee] {
				continue
			}
			visited[e.Callee] = true
			nh := &hop{node: e.Callee, via: e, prev: h}
			if target(e.Callee) {
				var frames []string
				for at := nh; at != nil; at = at.prev {
					pos := at.node.Pos
					if at.via != nil && at.via.Kind == EdgeDispatch {
						// Dispatch edges are synthetic; keep the decl pos.
						pos = at.node.Pos
					}
					frames = append(frames, g.frame(at.node, pos))
				}
				// Reverse to outermost-first.
				for i, j := 0, len(frames)-1; i < j; i, j = i+1, j-1 {
					frames[i], frames[j] = frames[j], frames[i]
				}
				return frames
			}
			queue = append(queue, nh)
		}
	}
	return nil
}

// summaryKinds are the edges along which execution is synchronous enough to
// propagate summaries: plain calls, deferred calls (they run within the
// caller's activation), and interface dispatch.
var summaryKinds = map[EdgeKind]bool{EdgeCall: true, EdgeDefer: true, EdgeDispatch: true}

// DOT renders the graph in Graphviz format (module-local nodes only, Ref
// edges excluded) for canonvet -callgraph dot.
func (g *CallGraph) DOT() string {
	var b strings.Builder
	b.WriteString("digraph canonvet {\n")
	b.WriteString("  rankdir=LR;\n  node [shape=box, fontsize=10];\n")
	nodes := g.SortedNodes()
	idx := make(map[*FuncNode]int, len(nodes))
	emitted := make(map[*FuncNode]bool)
	emit := func(n *FuncNode) {
		if emitted[n] {
			return
		}
		emitted[n] = true
		attrs := ""
		switch {
		case n.IsRPCPrim:
			attrs = ", style=filled, fillcolor=lightsalmon"
		case n.IsIfaceMethod:
			attrs = ", style=dashed"
		case n.EndlessLoop:
			attrs = ", style=filled, fillcolor=lightyellow"
		}
		fmt.Fprintf(&b, "  n%d [label=%q%s];\n", idx[n], n.Name, attrs)
	}
	for i, n := range nodes {
		idx[n] = i
	}
	for _, n := range nodes {
		for _, e := range n.Out {
			if e.Kind == EdgeRef {
				continue
			}
			emit(e.Caller)
			emit(e.Callee)
			style := ""
			switch e.Kind {
			case EdgeGo:
				style = " [style=bold, color=blue, label=\"go\"]"
			case EdgeDefer:
				style = " [style=dotted, label=\"defer\"]"
			case EdgeDispatch:
				style = " [style=dashed, color=gray]"
			}
			fmt.Fprintf(&b, "  n%d -> n%d%s;\n", idx[e.Caller], idx[e.Callee], style)
		}
	}
	b.WriteString("}\n")
	return b.String()
}
