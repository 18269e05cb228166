package lint

// wireenc.go is the encoder half of the v4 symbolic engine: it abstractly
// executes an AppendBinary-style function body, tracking the byte buffer
// through `b = ...` re-assignments and recording every append to it as an
// abstract operation (wOp). Helper calls that encode a scalar are inlined
// with the caller's arguments substituted; helper calls whose subject is a
// different structure become opaque struct operations interpreted once and
// cached. A canonicalization pass (canonEnc) then folds the op stream into
// the published field layout: uvarint(len)+bytes becomes string/bytes, the
// nil-guard + uvarint(n+1) idiom becomes optbytes or a slice header, the
// bool branch pair becomes bool, and a flags byte carries its recorded bits.

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
)

// wVal is an abstract value: where a number/string/slice handed to the
// encoder came from, relative to the message being encoded ("root").
type wVal struct {
	kind string // "root","field","len","add","const","elem","local","nilcmp","opaque"
	base *wVal
	sel  string // field name / local name
	n    int64  // const value, or the add delta
	typ  types.Type
}

// fieldName is the name published in the schema for a value: the struct
// field or local it was read from; empty for loop elements and opaque
// values.
func (v *wVal) fieldName() string {
	if v == nil {
		return ""
	}
	switch v.kind {
	case "field", "local":
		return v.sel
	}
	return ""
}

// sameWVal is structural equality, used to pair a length prefix with the
// bytes it describes. Opaque values never match anything.
func sameWVal(a, b *wVal) bool {
	if a == nil || b == nil {
		return a == b
	}
	if a.kind != b.kind || a.kind == "opaque" || a.sel != b.sel || a.n != b.n {
		return false
	}
	if a.base == nil && b.base == nil {
		return true
	}
	return sameWVal(a.base, b.base)
}

// encCond classifies a branch condition in an encoder body.
type encCond struct {
	kind     string // "nil" (X == nil), "flag" (flags&C != 0), "val" (anything else)
	val      *wVal
	flagName string
	flagMask uint64
}

// wOp is one abstract byte-stream operation.
type wOp struct {
	kind      string // "u8","fixed","uvarint","varint","bytes","struct","loop","branch","stop"
	width     int    // fixed: byte width
	src       *wVal
	bits      []*WireBit // u8: the flag bits recorded into the written byte
	cond      *encCond   // branch
	sub, alt  []*wOp     // branch arms / loop body
	ref       string     // struct: referenced structure name
	refFields []*WireField
	pos       token.Pos
}

// encFixed is a [N]byte scratch array with a pending PutUintN write, waiting
// for the append(b, x[:]...) that flushes it to the stream.
type encFixed struct {
	width int
	src   *wVal
}

// encInterp interprets one encoder body. Inlined callees get a child interp
// sharing the package state and note sink but with their own environment.
type encInterp struct {
	x      *wirePkg
	buf    types.Object           // the []byte buffer being grown
	env    map[types.Object]*wVal // params/receiver bound to abstract values
	arrays map[types.Object]*encFixed
	flags  map[types.Object]*[]*WireBit // declared flag-byte locals
	notes  *[]wireNote
	depth  int
}

// interpEncoder interprets a method-form encoder (receiver is the message).
func (x *wirePkg) interpEncoder(decl *ast.FuncDecl) ([]*WireField, []wireNote) {
	var notes []wireNote
	e := x.newEncInterp(decl, &notes)
	if e == nil {
		return nil, notes
	}
	ops := e.block(decl.Body)
	fields := x.canonEnc(ops, &notes)
	return fields, notes
}

// newEncInterp binds an encoder's receiver (or single struct parameter) to
// the abstract root and locates its buffer parameter.
func (x *wirePkg) newEncInterp(decl *ast.FuncDecl, notes *[]wireNote) *encInterp {
	e := &encInterp{
		x:      x,
		env:    make(map[types.Object]*wVal),
		arrays: make(map[types.Object]*encFixed),
		flags:  make(map[types.Object]*[]*WireBit),
		notes:  notes,
	}
	bindRoot := func(id *ast.Ident) {
		obj := x.info.Defs[id]
		if obj != nil {
			e.env[obj] = &wVal{kind: "root", typ: obj.Type()}
		}
	}
	if decl.Recv != nil && len(decl.Recv.List) == 1 && len(decl.Recv.List[0].Names) == 1 {
		bindRoot(decl.Recv.List[0].Names[0])
	}
	var rootParam *ast.Ident
	if decl.Type.Params != nil {
		for _, fl := range decl.Type.Params.List {
			for _, name := range fl.Names {
				obj := x.info.Defs[name]
				if obj == nil {
					continue
				}
				if isByteSlice(obj.Type()) && e.buf == nil {
					e.buf = obj
				} else if decl.Recv == nil && namedOf(obj.Type()) != nil && rootParam == nil {
					rootParam = name
				}
			}
		}
	}
	if decl.Recv == nil && rootParam != nil {
		bindRoot(rootParam)
	}
	if e.buf == nil {
		*notes = append(*notes, wireNote{decl.Pos(), "encoder has no []byte buffer parameter"})
		return nil
	}
	return e
}

func (e *encInterp) note(pos token.Pos, msg string) {
	*e.notes = append(*e.notes, wireNote{pos, msg})
}

// block interprets a statement list and returns its op stream.
func (e *encInterp) block(b *ast.BlockStmt) []*wOp {
	var out []*wOp
	for _, s := range b.List {
		e.stmt(s, &out)
	}
	return out
}

func (e *encInterp) stmt(s ast.Stmt, out *[]*wOp) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		*out = append(*out, e.block(s)...)

	case *ast.DeclStmt:
		gd, ok := s.Decl.(*ast.GenDecl)
		if !ok || gd.Tok != token.VAR {
			return
		}
		for _, spec := range gd.Specs {
			vs, ok := spec.(*ast.ValueSpec)
			if !ok || len(vs.Values) > 0 {
				continue
			}
			for _, name := range vs.Names {
				obj := e.x.info.Defs[name]
				if obj == nil {
					continue
				}
				switch t := obj.Type().Underlying().(type) {
				case *types.Array:
					if b, ok := t.Elem().Underlying().(*types.Basic); ok && b.Kind() == types.Byte {
						e.arrays[obj] = nil // scratch array, awaiting PutUintN
					}
				case *types.Basic:
					if t.Kind() == types.Byte || t.Kind() == types.Uint8 {
						bits := []*WireBit{}
						e.flags[obj] = &bits
					}
				}
			}
		}

	case *ast.AssignStmt:
		e.assign(s, out)

	case *ast.ExprStmt:
		e.exprStmt(s, out)

	case *ast.IfStmt:
		e.ifStmt(s, out)

	case *ast.RangeStmt:
		e.rangeStmt(s, out)

	case *ast.ReturnStmt:
		for _, res := range s.Results {
			if e.mentionsBuf(res) {
				e.bufExpr(res, out)
			}
		}
		*out = append(*out, &wOp{kind: "stop", pos: s.Pos()})

	case *ast.SwitchStmt, *ast.TypeSwitchStmt:
		e.switchStmt(s, out)

	default:
		if e.stmtMentionsBuf(s) {
			e.note(s.Pos(), "unsupported statement touches the encode buffer")
		}
	}
}

// assign handles `b = ...` buffer growth, flag accumulation, and scratch
// writes; everything not involving the buffer is ignored.
func (e *encInterp) assign(s *ast.AssignStmt, out *[]*wOp) {
	// flags |= CONST
	if s.Tok == token.OR_ASSIGN && len(s.Lhs) == 1 && len(s.Rhs) == 1 {
		if id, ok := s.Lhs[0].(*ast.Ident); ok {
			if bits, ok := e.flags[e.objOf(id)]; ok {
				if mask, name, ok := e.x.constBit(s.Rhs[0]); ok {
					addBit(bits, mask, name)
				} else {
					e.note(s.Pos(), "flag bit is not a named constant")
				}
				return
			}
		}
	}
	if s.Tok != token.ASSIGN && s.Tok != token.DEFINE {
		if e.stmtMentionsBuf(s) {
			e.note(s.Pos(), "unsupported compound assignment to the encode buffer")
		}
		return
	}
	// b = expr  /  b, _ = expr (multi-value call)
	if id, ok := s.Lhs[0].(*ast.Ident); ok && e.objOf(id) == e.buf && e.buf != nil {
		if len(s.Rhs) == 1 {
			e.bufExpr(s.Rhs[0], out)
			return
		}
		e.note(s.Pos(), "unsupported multi-expression assignment to the encode buffer")
		return
	}
	// Non-buffer assignment: bind simple `x := expr` so later uses resolve.
	if len(s.Lhs) == 1 && len(s.Rhs) == 1 && s.Tok == token.DEFINE {
		if id, ok := s.Lhs[0].(*ast.Ident); ok && !e.mentionsBuf(s.Rhs[0]) {
			if obj := e.x.info.Defs[id]; obj != nil {
				e.env[obj] = e.eval(s.Rhs[0])
				return
			}
		}
	}
	for _, rhs := range s.Rhs {
		if e.mentionsBuf(rhs) {
			e.note(s.Pos(), "encode buffer aliased outside the buffer variable")
			return
		}
	}
}

// exprStmt recognizes binary.BigEndian.PutUintN into a scratch array.
func (e *encInterp) exprStmt(s *ast.ExprStmt, out *[]*wOp) {
	call, ok := s.X.(*ast.CallExpr)
	if !ok {
		if e.stmtMentionsBuf(s) {
			e.note(s.Pos(), "unsupported expression touches the encode buffer")
		}
		return
	}
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok && len(call.Args) == 2 {
		var width int
		switch sel.Sel.Name {
		case "PutUint64":
			width = 8
		case "PutUint32":
			width = 4
		case "PutUint16":
			width = 2
		}
		if width > 0 {
			if arr := e.sliceOfArray(call.Args[0]); arr != nil {
				if _, tracked := e.arrays[arr]; tracked {
					e.arrays[arr] = &encFixed{width: width, src: e.eval(call.Args[1])}
					return
				}
			}
		}
	}
	if e.stmtMentionsBuf(s) {
		e.note(s.Pos(), "unsupported call touches the encode buffer")
	}
}

// sliceOfArray unwraps x[:] to the array object x.
func (e *encInterp) sliceOfArray(expr ast.Expr) types.Object {
	sl, ok := expr.(*ast.SliceExpr)
	if !ok || sl.Low != nil || sl.High != nil {
		return nil
	}
	id, ok := sl.X.(*ast.Ident)
	if !ok {
		return nil
	}
	return e.objOf(id)
}

func (e *encInterp) ifStmt(s *ast.IfStmt, out *[]*wOp) {
	if s.Init != nil {
		e.stmt(s.Init, out)
	}
	cond := e.classifyCond(s.Cond)
	sub := e.block(s.Body)
	var alt []*wOp
	switch el := s.Else.(type) {
	case *ast.BlockStmt:
		alt = e.block(el)
	case *ast.IfStmt:
		e.stmt(el, &alt)
	}
	emitBranch(out, cond, sub, alt, s.Pos())
}

// emitBranch appends a branch op unless both arms are silent (pure control
// flow — flag computation, error returns that write nothing).
func emitBranch(out *[]*wOp, cond *encCond, sub, alt []*wOp, pos token.Pos) {
	if onlyStops(sub) && onlyStops(alt) {
		return
	}
	*out = append(*out, &wOp{kind: "branch", cond: cond, sub: sub, alt: alt, pos: pos})
}

// onlyStops reports whether an op stream writes nothing to the stream.
func onlyStops(ops []*wOp) bool {
	for _, op := range ops {
		if op.kind != "stop" {
			return false
		}
	}
	return true
}

func (e *encInterp) classifyCond(cond ast.Expr) *encCond {
	cond = unparen(cond)
	if be, ok := cond.(*ast.BinaryExpr); ok {
		x, y := unparen(be.X), unparen(be.Y)
		if be.Op == token.EQL {
			if isNilIdent(y) {
				return &encCond{kind: "nil", val: e.eval(x)}
			}
			if isNilIdent(x) {
				return &encCond{kind: "nil", val: e.eval(y)}
			}
		}
		if be.Op == token.NEQ {
			// flags&C != 0
			if and, ok := x.(*ast.BinaryExpr); ok && and.Op == token.AND && isZeroLit(e.x.info, y) {
				if id, ok := unparen(and.X).(*ast.Ident); ok {
					if _, isFlags := e.flags[e.objOf(id)]; isFlags {
						if mask, name, ok := e.x.constBit(and.Y); ok {
							return &encCond{kind: "flag", flagName: name, flagMask: mask}
						}
					}
				}
			}
		}
	}
	v := e.eval(cond)
	if v != nil && v.kind == "nilcmp" {
		return &encCond{kind: "nil", val: v.base}
	}
	return &encCond{kind: "val", val: v}
}

func (e *encInterp) rangeStmt(s *ast.RangeStmt, out *[]*wOp) {
	src := e.eval(s.X)
	child := e.child()
	if id, ok := s.Value.(*ast.Ident); ok {
		if obj := e.x.info.Defs[id]; obj != nil {
			child.env[obj] = &wVal{kind: "elem", base: src, typ: obj.Type()}
		}
	}
	sub := child.block(s.Body)
	*out = append(*out, &wOp{kind: "loop", src: src, sub: sub, pos: s.Pos()})
}

// switchStmt tolerates switches that never touch the buffer (the envelope's
// payload-resolution type switch); a buffer write inside one is out of the
// model.
func (e *encInterp) switchStmt(s ast.Stmt, out *[]*wOp) {
	var body *ast.BlockStmt
	switch sw := s.(type) {
	case *ast.SwitchStmt:
		body = sw.Body
	case *ast.TypeSwitchStmt:
		body = sw.Body
	}
	for _, cl := range body.List {
		cc, ok := cl.(*ast.CaseClause)
		if !ok {
			continue
		}
		var tmp []*wOp
		for _, st := range cc.Body {
			e.stmt(st, &tmp)
		}
		if !onlyStops(tmp) {
			e.note(cl.Pos(), "buffer write inside a switch is not modeled")
		}
	}
}

// child returns an interp sharing everything but able to grow new bindings.
func (e *encInterp) child() *encInterp {
	c := &encInterp{
		x: e.x, buf: e.buf, notes: e.notes, depth: e.depth,
		env:    make(map[types.Object]*wVal, len(e.env)+2),
		arrays: e.arrays, flags: e.flags,
	}
	for k, v := range e.env {
		c.env[k] = v
	}
	return c
}

// bufExpr interprets an expression producing the new buffer value.
func (e *encInterp) bufExpr(expr ast.Expr, out *[]*wOp) {
	expr = unparen(expr)
	switch expr := expr.(type) {
	case *ast.Ident:
		if e.objOf(expr) == e.buf {
			return // plain `b` — no growth
		}
		e.note(expr.Pos(), "encode buffer rebound to another variable")
	case *ast.CallExpr:
		e.bufCall(expr, out)
	default:
		e.note(expr.Pos(), "unsupported buffer expression")
	}
}

// bufCall interprets append(...), binary.Append*varint, and module helper
// calls that grow the buffer.
func (e *encInterp) bufCall(call *ast.CallExpr, out *[]*wOp) {
	fun := unparen(call.Fun)

	// Built-in append.
	if id, ok := fun.(*ast.Ident); ok {
		if _, isBuiltin := e.x.info.Uses[id].(*types.Builtin); isBuiltin && id.Name == "append" {
			e.appendCall(call, out)
			return
		}
	}

	// binary.AppendUvarint / binary.AppendVarint.
	if sel, ok := fun.(*ast.SelectorExpr); ok {
		if pkgID, ok := sel.X.(*ast.Ident); ok {
			if pn, ok := e.x.info.Uses[pkgID].(*types.PkgName); ok && pn.Imported().Path() == "encoding/binary" {
				switch {
				case sel.Sel.Name == "AppendUvarint" && len(call.Args) == 2:
					*out = append(*out, &wOp{kind: "uvarint", src: e.eval(call.Args[1]), pos: call.Pos()})
				case sel.Sel.Name == "AppendVarint" && len(call.Args) == 2:
					*out = append(*out, &wOp{kind: "varint", src: e.eval(call.Args[1]), pos: call.Pos()})
				default:
					e.note(call.Pos(), "unsupported encoding/binary call grows the buffer")
				}
				return
			}
		}
	}

	// Module helper call (free function or method).
	e.helperCall(call, out)
}

// appendCall interprets append(b, ...): fixed-width flushes, raw byte
// strings, and single bytes.
func (e *encInterp) appendCall(call *ast.CallExpr, out *[]*wOp) {
	if len(call.Args) == 0 || !e.mentionsBuf(call.Args[0]) {
		e.note(call.Pos(), "append does not grow the encode buffer")
		return
	}
	if call.Ellipsis.IsValid() {
		if len(call.Args) != 2 {
			e.note(call.Pos(), "variadic append with multiple sources")
			return
		}
		arg := unparen(call.Args[1])
		if arr := e.sliceOfArray(arg); arr != nil {
			if pending, ok := e.arrays[arr]; ok && pending != nil {
				*out = append(*out, &wOp{kind: "fixed", width: pending.width, src: pending.src, pos: call.Pos()})
				e.arrays[arr] = nil
				return
			}
		}
		*out = append(*out, &wOp{kind: "bytes", src: e.eval(arg), pos: call.Pos()})
		return
	}
	for _, arg := range call.Args[1:] {
		op := &wOp{kind: "u8", src: e.eval(arg), pos: call.Pos()}
		if id, ok := unparen(arg).(*ast.Ident); ok {
			if bits, isFlags := e.flags[e.objOf(id)]; isFlags {
				op.bits = append([]*WireBit(nil), (*bits)...)
				op.src = &wVal{kind: "local", sel: id.Name}
			}
		}
		*out = append(*out, op)
	}
}

// helperCall dispatches a module call that grows the buffer: inline it when
// it encodes the current message (scalar helpers, self-delegation), emit a
// struct op when its subject is a different structure.
func (e *encInterp) helperCall(call *ast.CallExpr, out *[]*wOp) {
	callee := e.x.calleeOf(call)
	if callee == nil {
		e.note(call.Pos(), "cannot resolve call that grows the encode buffer")
		return
	}
	decl := e.x.decls[callee]
	if decl == nil {
		e.note(call.Pos(), "call into another package grows the encode buffer")
		return
	}
	if e.depth > 16 {
		e.note(call.Pos(), "encoder call nesting too deep")
		return
	}

	// Determine the callee's subject: the receiver, or its single named-
	// struct parameter.
	var subject *wVal
	var subjectArg ast.Expr
	if sel, ok := unparen(call.Fun).(*ast.SelectorExpr); ok && decl.Recv != nil {
		subjectArg = sel.X
		subject = e.eval(sel.X)
	} else if decl.Recv == nil {
		var structArgs []ast.Expr
		for _, arg := range call.Args {
			if e.mentionsBuf(arg) {
				continue
			}
			if namedOf(e.x.typeOf(arg)) != nil && !isByteSlice(e.x.typeOf(arg)) {
				structArgs = append(structArgs, arg)
			}
		}
		if len(structArgs) == 1 {
			subjectArg = structArgs[0]
			subject = e.eval(structArgs[0])
		}
	}

	if subject != nil && subject.kind != "root" {
		named := namedOf(e.x.typeOf(subjectArg))
		if named == nil {
			e.note(call.Pos(), "cannot resolve the structure encoded by this call")
			return
		}
		sum := e.x.encStructSummary(callee, decl, named)
		if sum == nil {
			e.note(call.Pos(), "cannot interpret the structure encoder "+callee.Name())
			return
		}
		*out = append(*out, &wOp{
			kind: "struct", src: subject, ref: sum.ref, refFields: sum.fields, pos: call.Pos(),
		})
		return
	}

	// Inline: bind the callee's parameters to the caller's argument values.
	child := &encInterp{
		x: e.x, notes: e.notes, depth: e.depth + 1,
		env:    make(map[types.Object]*wVal),
		arrays: make(map[types.Object]*encFixed),
		flags:  make(map[types.Object]*[]*WireBit),
	}
	if decl.Recv != nil && len(decl.Recv.List) == 1 && len(decl.Recv.List[0].Names) == 1 {
		if obj := e.x.info.Defs[decl.Recv.List[0].Names[0]]; obj != nil && subject != nil {
			child.env[obj] = subject
		}
	}
	params := flattenParams(e.x.info, decl)
	if len(params) != len(call.Args) {
		e.note(call.Pos(), "variadic or mismatched helper call grows the encode buffer")
		return
	}
	for i, p := range params {
		if p == nil {
			continue
		}
		if e.mentionsBuf(call.Args[i]) {
			child.buf = p
			continue
		}
		child.env[p] = e.eval(call.Args[i])
	}
	if child.buf == nil {
		e.note(call.Pos(), "helper call grows the buffer without receiving it")
		return
	}
	ops := child.block(decl.Body)
	// A callee's final return ends the callee, not the message.
	for len(ops) > 0 && ops[len(ops)-1].kind == "stop" {
		ops = ops[:len(ops)-1]
	}
	*out = append(*out, ops...)
}

// addBit appends a flag bit unless the same mask+name pair is already
// recorded (an encoder may set one bit on two exclusive paths).
func addBit(bits *[]*WireBit, mask uint64, name string) {
	for _, b := range *bits {
		if b.Mask == mask && b.Name == name {
			return
		}
	}
	*bits = append(*bits, &WireBit{Mask: mask, Name: name})
}

// flattenParams lists a FuncDecl's parameter objects in order (nil for
// unnamed parameters).
func flattenParams(info *types.Info, decl *ast.FuncDecl) []types.Object {
	var out []types.Object
	if decl.Type.Params == nil {
		return out
	}
	for _, fl := range decl.Type.Params.List {
		if len(fl.Names) == 0 {
			out = append(out, nil)
			continue
		}
		for _, name := range fl.Names {
			out = append(out, info.Defs[name])
		}
	}
	return out
}

// encStructSummary interprets (once) a helper that encodes an embedded
// structure, registering its schema entry.
func (x *wirePkg) encStructSummary(callee types.Object, decl *ast.FuncDecl, named *types.Named) *wireStructSummary {
	if sum, ok := x.encCache[callee]; ok {
		return sum
	}
	x.encCache[callee] = nil // cycle guard
	var notes []wireNote
	e := x.newEncInterp(decl, &notes)
	var fields []*WireField
	if e != nil {
		ops := e.block(decl.Body)
		fields = x.canonEnc(ops, &notes)
	}
	sum := &wireStructSummary{
		ref:    named.Obj().Name(),
		spath:  x.structPath(named),
		fields: fields,
		pos:    decl.Pos(),
		notes:  notes,
	}
	x.encCache[callee] = sum
	x.addStructEntry(sum, true)
	return sum
}

// calleeOf resolves a call's target function object.
func (x *wirePkg) calleeOf(call *ast.CallExpr) types.Object {
	switch fun := unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := x.info.Uses[fun].(*types.Func); ok {
			return fn
		}
	case *ast.SelectorExpr:
		if fn, ok := x.info.Uses[fun.Sel].(*types.Func); ok {
			return fn
		}
	}
	return nil
}

// typeOf is the package-scoped expression type lookup.
func (x *wirePkg) typeOf(e ast.Expr) types.Type {
	return typeOf(x.info, e)
}

// constBit resolves a flag-bit expression to its constant mask and name.
func (x *wirePkg) constBit(expr ast.Expr) (mask uint64, name string, ok bool) {
	expr = unparen(expr)
	tv, found := x.info.Types[expr]
	if !found || tv.Value == nil {
		return 0, "", false
	}
	v, exact := constant.Uint64Val(constant.ToInt(tv.Value))
	if !exact {
		return 0, "", false
	}
	if id, isIdent := expr.(*ast.Ident); isIdent {
		return v, id.Name, true
	}
	if sel, isSel := expr.(*ast.SelectorExpr); isSel {
		return v, sel.Sel.Name, true
	}
	return 0, "", false
}

// eval maps an expression to an abstract value.
func (e *encInterp) eval(expr ast.Expr) *wVal {
	expr = unparen(expr)
	switch expr := expr.(type) {
	case *ast.Ident:
		obj := e.objOf(expr)
		if v, ok := e.env[obj]; ok {
			return v
		}
		if c, ok := obj.(*types.Const); ok {
			if n, exact := constant.Int64Val(constant.ToInt(c.Val())); exact {
				return &wVal{kind: "const", n: n, typ: c.Type()}
			}
		}
		return &wVal{kind: "local", sel: expr.Name, typ: e.x.typeOf(expr)}
	case *ast.SelectorExpr:
		if c, ok := e.x.info.Uses[expr.Sel].(*types.Const); ok {
			if n, exact := constant.Int64Val(constant.ToInt(c.Val())); exact {
				return &wVal{kind: "const", n: n, typ: c.Type()}
			}
		}
		if _, isPkg := e.x.info.Uses[baseIdent(expr.X)].(*types.PkgName); isPkg && baseIdent(expr.X) != nil {
			return &wVal{kind: "opaque", typ: e.x.typeOf(expr)}
		}
		return &wVal{kind: "field", base: e.eval(expr.X), sel: expr.Sel.Name, typ: e.x.typeOf(expr)}
	case *ast.CallExpr:
		if tv, ok := e.x.info.Types[expr.Fun]; ok && tv.IsType() && len(expr.Args) == 1 {
			inner := e.eval(expr.Args[0])
			return &wVal{kind: inner.kind, base: inner.base, sel: inner.sel, n: inner.n, typ: e.x.typeOf(expr)}
		}
		if id, ok := unparen(expr.Fun).(*ast.Ident); ok {
			if _, isBuiltin := e.x.info.Uses[id].(*types.Builtin); isBuiltin && id.Name == "len" {
				return &wVal{kind: "len", base: e.eval(expr.Args[0]), typ: e.x.typeOf(expr)}
			}
		}
		return &wVal{kind: "opaque", typ: e.x.typeOf(expr)}
	case *ast.BasicLit:
		if tv, ok := e.x.info.Types[expr]; ok && tv.Value != nil {
			if n, exact := constant.Int64Val(constant.ToInt(tv.Value)); exact {
				return &wVal{kind: "const", n: n, typ: tv.Type}
			}
		}
		return &wVal{kind: "opaque", typ: e.x.typeOf(expr)}
	case *ast.BinaryExpr:
		x, y := unparen(expr.X), unparen(expr.Y)
		switch expr.Op {
		case token.ADD:
			if n, ok := constOf(e.x.info, y); ok {
				return &wVal{kind: "add", base: e.eval(x), n: n, typ: e.x.typeOf(expr)}
			}
			if n, ok := constOf(e.x.info, x); ok {
				return &wVal{kind: "add", base: e.eval(y), n: n, typ: e.x.typeOf(expr)}
			}
		case token.EQL:
			if isNilIdent(y) {
				return &wVal{kind: "nilcmp", base: e.eval(x), typ: e.x.typeOf(expr)}
			}
			if isNilIdent(x) {
				return &wVal{kind: "nilcmp", base: e.eval(y), typ: e.x.typeOf(expr)}
			}
		}
		return &wVal{kind: "opaque", typ: e.x.typeOf(expr)}
	case *ast.StarExpr:
		return e.eval(expr.X)
	case *ast.UnaryExpr:
		if expr.Op == token.AND {
			return e.eval(expr.X)
		}
		return &wVal{kind: "opaque", typ: e.x.typeOf(expr)}
	default:
		return &wVal{kind: "opaque", typ: e.x.typeOf(expr)}
	}
}

func (e *encInterp) objOf(id *ast.Ident) types.Object {
	if obj := e.x.info.Uses[id]; obj != nil {
		return obj
	}
	return e.x.info.Defs[id]
}

// mentionsBuf reports whether the expression references the buffer object.
func (e *encInterp) mentionsBuf(expr ast.Expr) bool {
	if e.buf == nil {
		return false
	}
	found := false
	ast.Inspect(expr, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && e.objOf(id) == e.buf {
			found = true
		}
		return !found
	})
	return found
}

func (e *encInterp) stmtMentionsBuf(s ast.Stmt) bool {
	if e.buf == nil {
		return false
	}
	found := false
	ast.Inspect(s, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && e.objOf(id) == e.buf {
			found = true
		}
		return !found
	})
	return found
}

// ---- small syntax helpers shared with the decoder side ----

func unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}

func baseIdent(e ast.Expr) *ast.Ident {
	id, _ := unparen(e).(*ast.Ident)
	return id
}

func isZeroLit(info *types.Info, e ast.Expr) bool {
	n, ok := constOf(info, e)
	return ok && n == 0
}

func constOf(info *types.Info, e ast.Expr) (int64, bool) {
	tv, ok := info.Types[e]
	if !ok || tv.Value == nil {
		return 0, false
	}
	return constant.Int64Val(constant.ToInt(tv.Value))
}
