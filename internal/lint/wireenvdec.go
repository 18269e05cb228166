package lint

// wireenvdec.go interprets the envelope decoder, which differs from the
// body decoders in shape: it consumes a raw byte slice directly (a flags
// byte peeled off the front, a `rest` stream advanced in place) and reads
// strings through a locally-defined closure instead of a strict-reader
// method. The walker recognizes exactly those idioms; anything else that
// touches the stream becomes an extraction note.

import (
	"go/ast"
	"go/token"
	"go/types"
)

type envDecInterp struct {
	x        *wirePkg
	data     types.Object            // the input []byte parameter
	stream   types.Object            // the advancing rest-of-input local
	flagsF   *WireField              // the emitted flags field
	flagsObj types.Object            // the flags byte local
	closures map[types.Object]string // read closures -> field encoding
	root     types.Object            // the message local being filled
	fields   []*WireField
	curCond  string
	notes    *[]wireNote
}

// interpEnvelopeDecoder interprets the package-level envelope decoder.
func (x *wirePkg) interpEnvelopeDecoder(decl *ast.FuncDecl) ([]*WireField, []wireNote) {
	var notes []wireNote
	d := &envDecInterp{x: x, closures: make(map[types.Object]string), notes: &notes}
	if decl.Type.Params != nil {
		for _, fl := range decl.Type.Params.List {
			for _, name := range fl.Names {
				if obj := x.info.Defs[name]; obj != nil && d.data == nil && isByteSlice(obj.Type()) {
					d.data = obj
				}
			}
		}
	}
	if d.data == nil {
		notes = append(notes, wireNote{decl.Pos(), "envelope decoder has no []byte parameter"})
		return nil, notes
	}
	d.stmts(decl.Body.List)
	return d.fields, notes
}

func (d *envDecInterp) note(pos token.Pos, msg string) {
	*d.notes = append(*d.notes, wireNote{pos, msg})
}

func (d *envDecInterp) emit(f *WireField) {
	if d.curCond != "" && f.Cond == "" {
		f.Cond = d.curCond
	}
	d.fields = append(d.fields, f)
}

func (d *envDecInterp) stmts(list []ast.Stmt) {
	for _, s := range list {
		d.stmt(s)
	}
}

func (d *envDecInterp) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		d.stmts(s.List)
	case *ast.DeclStmt:
		d.declStmt(s)
	case *ast.AssignStmt:
		d.assign(s)
	case *ast.IfStmt:
		d.ifStmt(s)
	case *ast.ReturnStmt:
		// Success and failure returns alike carry no layout information.
	default:
		if d.mentionsStream(s) {
			d.note(s.Pos(), "unsupported statement reads the envelope")
		}
	}
}

// declStmt registers the `var msg Message` destination.
func (d *envDecInterp) declStmt(s *ast.DeclStmt) {
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
			obj := d.x.info.Defs[name]
			if obj == nil || d.root != nil {
				continue
			}
			if _, isStruct := obj.Type().Underlying().(*types.Struct); isStruct && namedOf(obj.Type()) != nil {
				d.root = obj
			}
		}
	}
}

func (d *envDecInterp) assign(s *ast.AssignStmt) {
	if s.Tok == token.DEFINE && len(s.Rhs) == 1 {
		rhs := unparen(s.Rhs[0])
		// flags := data[0]
		if idx, ok := rhs.(*ast.IndexExpr); ok && len(s.Lhs) == 1 && d.exprIs(idx.X, d.data) {
			if id, ok := s.Lhs[0].(*ast.Ident); ok {
				f := &WireField{Name: id.Name, Enc: wireEncFlags, Bits: []*WireBit{}}
				d.emit(f)
				d.flagsF = f
				d.flagsObj = d.x.info.Defs[id]
				return
			}
		}
		// rest := data[1:]
		if sl, ok := rhs.(*ast.SliceExpr); ok && len(s.Lhs) == 1 && d.exprIs(sl.X, d.data) {
			if id, ok := s.Lhs[0].(*ast.Ident); ok {
				d.stream = d.x.info.Defs[id]
				return
			}
		}
		// readStr := func() (string, error) { ... }
		if lit, ok := rhs.(*ast.FuncLit); ok && len(s.Lhs) == 1 {
			if id, ok := s.Lhs[0].(*ast.Ident); ok {
				kind := d.closureKind(lit)
				if kind == "" {
					d.note(s.Pos(), "unrecognized envelope read closure "+id.Name)
					return
				}
				d.closures[d.x.info.Defs[id]] = kind
				return
			}
		}
		// n, sz := binary.Uvarint(rest): an inline length header; the bytes
		// that follow are recognized at their copy site.
		if call, ok := rhs.(*ast.CallExpr); ok && isBinaryUvarintCall(d.x.info, call) {
			return
		}
		if d.mentionsStream(s) {
			d.note(s.Pos(), "unrecognized envelope read")
		}
		return
	}

	if len(s.Lhs) == 0 || len(s.Rhs) != 1 {
		if d.mentionsStream(s) {
			d.note(s.Pos(), "unsupported assignment reads the envelope")
		}
		return
	}
	rhs := unparen(s.Rhs[0])
	switch lhs := s.Lhs[0].(type) {
	case *ast.SelectorExpr:
		if !d.exprIs(lhs.X, d.root) || d.root == nil {
			break
		}
		// msg.Type, err = readStr()
		if call, ok := rhs.(*ast.CallExpr); ok {
			if id, ok := unparen(call.Fun).(*ast.Ident); ok {
				if kind, ok := d.closures[objOfInfo(d.x.info, id)]; ok {
					d.emit(&WireField{Name: lhs.Sel.Name, Enc: kind})
					return
				}
			}
			// msg.Payload = append([]byte(nil), rest[sz:sz+int(n)]...)
			if isBuiltinCall(d.x.info, call, "append") && call.Ellipsis.IsValid() && d.copiesStream(call) {
				d.emit(&WireField{Name: lhs.Sel.Name, Enc: wireEncBytes})
				return
			}
		}
		// Assignments that decode nothing.
		if !d.mentionsStream(s) {
			return
		}
	case *ast.Ident:
		// rest = rest[sz+int(n):]: the stream advancing.
		if objOfInfo(d.x.info, lhs) == d.stream && d.stream != nil {
			return
		}
	}
	if d.mentionsStream(s) {
		d.note(s.Pos(), "unrecognized envelope read")
	}
}

func (d *envDecInterp) ifStmt(s *ast.IfStmt) {
	if s.Init != nil {
		d.stmt(s.Init)
	}
	cond := unparen(s.Cond)
	// if flags&C != 0 { conditional fields }
	if be, ok := cond.(*ast.BinaryExpr); ok && be.Op == token.NEQ && isZeroLit(d.x.info, be.Y) {
		if and, ok := unparen(be.X).(*ast.BinaryExpr); ok && and.Op == token.AND {
			if id, ok := unparen(and.X).(*ast.Ident); ok &&
				d.flagsObj != nil && objOfInfo(d.x.info, id) == d.flagsObj {
				if mask, name, ok := d.x.constBit(and.Y); ok && d.flagsF != nil {
					addBit(&d.flagsF.Bits, mask, name)
					saved := d.curCond
					d.curCond = name
					d.stmts(s.Body.List)
					d.curCond = saved
					return
				}
			}
		}
	}
	// Everything else is a bounds/error guard (err != nil, len(data) < 1,
	// len(rest) != 0, sz <= 0 || ...): the arms may only fail, not decode.
	before := len(d.fields)
	d.stmts(s.Body.List)
	switch el := s.Else.(type) {
	case *ast.BlockStmt:
		d.stmts(el.List)
	case *ast.IfStmt:
		d.stmt(el)
	}
	if len(d.fields) > before {
		d.note(s.Pos(), "conditional envelope read with an unrecognized condition")
	}
}

// closureKind classifies a locally-defined read closure by its results.
func (d *envDecInterp) closureKind(lit *ast.FuncLit) string {
	tv, ok := d.x.info.Types[lit]
	if !ok {
		return ""
	}
	sig, ok := tv.Type.(*types.Signature)
	if !ok || sig.Results().Len() != 2 {
		return ""
	}
	if !bodyPrims(d.x.info, lit.Body)["Uvarint"] {
		return ""
	}
	t := sig.Results().At(0).Type()
	if b, ok := t.Underlying().(*types.Basic); ok && b.Info()&types.IsString != 0 {
		return wireEncString
	}
	if isByteSlice(t) {
		return wireEncBytes
	}
	return ""
}

// copiesStream reports whether an append call copies a slice of the stream.
func (d *envDecInterp) copiesStream(call *ast.CallExpr) bool {
	if len(call.Args) != 2 {
		return false
	}
	if sl, ok := unparen(call.Args[1]).(*ast.SliceExpr); ok {
		return d.exprIs(sl.X, d.stream)
	}
	return false
}

func (d *envDecInterp) exprIs(e ast.Expr, obj types.Object) bool {
	id, ok := unparen(e).(*ast.Ident)
	return ok && obj != nil && objOfInfo(d.x.info, id) == obj
}

// mentionsStream reports whether a node reads the raw input or the stream.
func (d *envDecInterp) mentionsStream(n ast.Node) bool {
	found := false
	ast.Inspect(n, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			obj := objOfInfo(d.x.info, id)
			if obj != nil && (obj == d.data || obj == d.stream) {
				found = true
			}
		}
		return !found
	})
	return found
}

// isBinaryUvarintCall matches binary.Uvarint / binary.ReadUvarint calls.
func isBinaryUvarintCall(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || (sel.Sel.Name != "Uvarint" && sel.Sel.Name != "ReadUvarint") {
		return false
	}
	id, ok := unparen(sel.X).(*ast.Ident)
	if !ok {
		return false
	}
	pn, ok := info.Uses[id].(*types.PkgName)
	return ok && pn.Imported().Path() == "encoding/binary"
}
