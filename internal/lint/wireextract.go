package lint

// wireextract.go drives the v4 symbolic wire-schema extraction: it finds
// every AppendBinary/UnmarshalBinary codec pair (and the package-level
// envelope codec) in the configured wire packages, runs the encoder
// interpreter (wireenc.go) and the decoder interpreter (wiredec.go) over
// each, pairs the two sides into wireMsg records for the wiresym check, and
// scans every decoder-side function for wire-controlled allocations for the
// wirebounds check. The encoder side is the canonical layout published in
// the WireSchema (the committed baseline diffs against it); the decoder
// side exists to be compared.

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"regexp"
	"strings"
)

// wireNote records a point where the interpreters could not model an
// operation that touches the byte stream. Extraction notes disable the
// symmetric comparison for that message (a partial layout would produce
// false mismatches) and surface through wiresym as their own findings, so
// an unmodelable codec is loud rather than silently unchecked.
type wireNote struct {
	pos token.Pos
	msg string
}

// wireMsg is one codec pair under analysis: the published WireMessage plus
// both interpreted sides and their positions.
type wireMsg struct {
	m      *WireMessage
	enc    []*WireField // encoder-observed layout (canonical)
	dec    []*WireField // decoder-observed layout
	encPos token.Pos
	decPos token.Pos
	encOK  bool
	decOK  bool
	notes  []wireNote
}

// wireAlloc is one decoder allocation sized by a wire-controlled count with
// no recognized bound — the raw material of the wirebounds check.
type wireAlloc struct {
	pos      token.Pos // the make call
	countPos token.Pos // where the count was read from the wire
	fn       string    // enclosing function
	elem     string    // element type
	elemSize int64     // element size in bytes
	count    string    // the count variable's name
}

// wireExtraction is the result of one extraction run over the loaded module.
type wireExtraction struct {
	cfg    *Config
	fset   *token.FileSet
	schema *WireSchema
	msgs   []*wireMsg
	allocs []wireAlloc
	// loaded records which configured wire packages (module-relative) were
	// actually present in this run; wirebreak only judges baseline entries
	// whose package was loaded, so partial runs stay quiet.
	loaded map[string]bool
	// allWireLoaded is true when every configured wire package was loaded —
	// the only situation where completeness findings (undocumented message,
	// doc block with no codec) are sound.
	allWireLoaded bool
	// anchorPos is a stable position in the first loaded wire package, used
	// for findings about things that no longer exist in the tree.
	anchorPos token.Pos
	// byStruct indexes messages by their module-relative struct path.
	byStruct map[string]*wireMsg
	// pkgPos maps module-relative wire package paths to their package
	// clause position, for removal findings.
	pkgPos map[string]token.Pos
}

// wireRel maps a full import path to its module-relative form used in the
// schema ("internal/netnode").
func wireRel(cfg *Config, path string) string {
	if path == cfg.ModulePath {
		return "."
	}
	return strings.TrimPrefix(path, cfg.ModulePath+"/")
}

// wireMsgNameRe splits codec struct names into base + direction:
// lookupReq -> "lookup request", storeReq2 -> "store2 request".
var wireMsgNameRe = regexp.MustCompile(`^(.*?)(Req|Resp)([0-9]*)$`)

// wireNameOf derives the wire-level message name from a Go struct name.
func wireNameOf(structName string) string {
	m := wireMsgNameRe.FindStringSubmatch(structName)
	if m == nil || m[1] == "" {
		return structName
	}
	dir := "request"
	if m[2] == "Resp" {
		dir = "response"
	}
	return strings.ToLower(m[1]) + m[3] + " " + dir
}

// wireVersionConst names the constant that carries the wire protocol
// version, in whichever wire package declares it.
const wireVersionConst = "muxVersion"

// wireVersionOf reads the wire version from pkg or from a wire package it
// imports, so a run that loads only the body codecs still sees the version
// the envelope package declares.
func wireVersionOf(cfg *Config, pkg *types.Package) (int, bool) {
	if pkg == nil {
		return 0, false
	}
	for _, p := range append([]*types.Package{pkg}, pkg.Imports()...) {
		if p != pkg && !cfg.WirePackages[p.Path()] {
			continue
		}
		if c, ok := p.Scope().Lookup(wireVersionConst).(*types.Const); ok {
			if v, exact := constant.Int64Val(c.Val()); exact {
				return int(v), true
			}
		}
	}
	return 0, false
}

// ExtractWireSchema runs the symbolic engine standalone and returns the
// extracted schema (canonvet -schema / -write-schema). Extraction notes and
// bounds findings are dropped; the checks report those during a lint run.
func ExtractWireSchema(cfg *Config, fset *token.FileSet, pkgs []*Package) *WireSchema {
	return extractWire(cfg, fset, pkgs).schema
}

// extractWire interprets every codec in the configured wire packages.
func extractWire(cfg *Config, fset *token.FileSet, pkgs []*Package) *wireExtraction {
	ext := &wireExtraction{
		cfg:  cfg,
		fset: fset,
		schema: &WireSchema{
			Format: wireSchemaFormat,
			Module: cfg.ModulePath,
		},
		loaded:   make(map[string]bool),
		byStruct: make(map[string]*wireMsg),
		pkgPos:   make(map[string]token.Pos),
	}
	for _, pkg := range pkgs {
		if pkg.External || !cfg.WirePackages[pkg.Path] {
			continue
		}
		rel := wireRel(cfg, pkg.Path)
		ext.loaded[rel] = true
		if v, ok := wireVersionOf(cfg, pkg.Types); ok {
			ext.schema.Version = v
		}
		if len(pkg.Files) > 0 {
			ext.pkgPos[rel] = pkg.Files[0].Package
			if !ext.anchorPos.IsValid() {
				ext.anchorPos = pkg.Files[0].Package
			}
		}
		newWirePkg(ext, pkg).run()
	}
	ext.allWireLoaded = true
	for path := range cfg.WirePackages {
		if !ext.loaded[wireRel(cfg, path)] {
			ext.allWireLoaded = false
		}
	}
	for _, wm := range ext.msgs {
		if wm.encOK {
			wm.m.Fields = wm.enc
		} else if wm.decOK {
			// Encoder unmodelable: publish the decoder's view so the
			// schema still names the message; notes flag the gap.
			wm.m.Fields = wm.dec
		}
		ext.schema.Messages = append(ext.schema.Messages, wm.m)
		ext.byStruct[wm.m.Struct] = wm
	}
	ext.schema.sortMessages()
	return ext
}

// wirePkg is the per-package extraction state shared by the encoder and
// decoder interpreters.
type wirePkg struct {
	ext  *wireExtraction
	pkg  *Package
	rel  string // module-relative package path
	info *types.Info

	// decls indexes every non-test FuncDecl by its types object.
	decls map[types.Object]*ast.FuncDecl
	// readerKinds memoizes reader-method classification (wiredec.go).
	readerKinds map[types.Object]string
	// encCache/decCache memoize struct-level interpretation of helper
	// codecs (appendSpan/readSpan and readFrom-style methods).
	encCache map[types.Object]*wireStructSummary
	decCache map[types.Object]*wireStructSummary
	// structSeen tracks which embedded structures already have a schema
	// entry, keyed by module-relative struct path.
	structSeen map[string]*wireMsg
}

// wireStructSummary is the interpreted layout of a helper codec that
// encodes/decodes one embedded structure.
type wireStructSummary struct {
	ref    string // structure name ("Span", "Info")
	spath  string // module-relative struct path
	fields []*WireField
	pos    token.Pos
	notes  []wireNote
	// resultField is what a free helper decoder returns at its call site: a
	// struct field for value builders (readSpan), a slice field for slice
	// builders (readSpans).
	resultField *WireField
}

// result returns the helper's call-site field, synthesizing a struct field
// from ref/fields when the helper was summarized from the method side.
func (s *wireStructSummary) result() *WireField {
	if s.resultField != nil {
		return s.resultField
	}
	if s.ref != "" {
		return &WireField{Enc: wireEncStruct, Ref: s.ref, Elem: s.fields}
	}
	return nil
}

func newWirePkg(ext *wireExtraction, pkg *Package) *wirePkg {
	x := &wirePkg{
		ext:         ext,
		pkg:         pkg,
		rel:         wireRel(ext.cfg, pkg.Path),
		info:        pkg.Info,
		decls:       make(map[types.Object]*ast.FuncDecl),
		readerKinds: make(map[types.Object]string),
		encCache:    make(map[types.Object]*wireStructSummary),
		decCache:    make(map[types.Object]*wireStructSummary),
		structSeen:  make(map[string]*wireMsg),
	}
	for _, f := range pkg.Files {
		if x.isTestFile(f.Pos()) {
			continue
		}
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Name == nil {
				continue
			}
			if obj := pkg.Info.Defs[fd.Name]; obj != nil {
				x.decls[obj] = fd
			}
		}
	}
	return x
}

// isTestFile reports whether pos lies in a _test.go file. The loader folds
// in-package test files into the unit, and test files legitimately define
// toy codecs (benchmark bodies) that must not join the wire surface.
func (x *wirePkg) isTestFile(pos token.Pos) bool {
	return strings.HasSuffix(x.ext.fset.Position(pos).Filename, "_test.go")
}

// run discovers and interprets every codec pair in the package.
func (x *wirePkg) run() {
	type pair struct {
		enc, dec *ast.FuncDecl
	}
	msgs := make(map[*types.Named]*pair)
	var order []*types.Named
	var envEnc, envDec *ast.FuncDecl
	for obj, fd := range x.decls {
		fn, ok := obj.(*types.Func)
		if !ok {
			continue
		}
		if fd.Recv == nil {
			// Package-level envelope codec.
			switch fn.Name() {
			case "AppendBinaryMessage":
				envEnc = fd
			case "DecodeBinaryMessage":
				envDec = fd
			}
			continue
		}
		if fn.Name() != "AppendBinary" && fn.Name() != "UnmarshalBinary" {
			continue
		}
		recv := namedOf(fn.Type().(*types.Signature).Recv().Type())
		if recv == nil {
			continue
		}
		p := msgs[recv]
		if p == nil {
			p = &pair{}
			msgs[recv] = p
			order = append(order, recv)
		}
		if fn.Name() == "AppendBinary" {
			p.enc = fd
		} else {
			p.dec = fd
		}
	}
	// Deterministic order: by type name.
	for i := 0; i < len(order); i++ {
		for j := i + 1; j < len(order); j++ {
			if order[j].Obj().Name() < order[i].Obj().Name() {
				order[i], order[j] = order[j], order[i]
			}
		}
	}
	for _, named := range order {
		p := msgs[named]
		if p.enc == nil || p.dec == nil {
			// Half a codec has no layout to compare.
			continue
		}
		x.extractMessage(named, p.enc, p.dec)
	}
	if envEnc != nil && envDec != nil {
		x.extractEnvelope(envEnc, envDec)
	}
	// Bounds scan over every non-test function in the package, codec or
	// helper: allocations from wire counts hide in helpers too.
	for _, fd := range x.decls {
		x.allocScan(fd)
	}
}

// structPath renders a named type's module-relative path
// ("internal/telemetry.Span").
func (x *wirePkg) structPath(named *types.Named) string {
	obj := named.Obj()
	if obj.Pkg() == nil {
		return obj.Name()
	}
	return wireRel(x.ext.cfg, obj.Pkg().Path()) + "." + obj.Name()
}

// extractMessage interprets one AppendBinary/UnmarshalBinary pair.
func (x *wirePkg) extractMessage(named *types.Named, enc, dec *ast.FuncDecl) {
	wm := &wireMsg{
		m: &WireMessage{
			Name:    wireNameOf(named.Obj().Name()),
			Struct:  x.structPath(named),
			Package: x.rel,
			Kind:    "message",
		},
		encPos: enc.Pos(),
		decPos: dec.Pos(),
	}
	x.ext.msgs = append(x.ext.msgs, wm)

	encFields, encNotes := x.interpEncoder(enc)
	wm.notes = append(wm.notes, encNotes...)
	if len(encNotes) == 0 {
		wm.enc, wm.encOK = encFields, true
	}
	decFields, decNotes := x.interpDecoder(dec)
	wm.notes = append(wm.notes, decNotes...)
	if len(decNotes) == 0 {
		wm.dec, wm.decOK = decFields, true
	}
}

// extractEnvelope interprets the package-level envelope codec pair.
func (x *wirePkg) extractEnvelope(enc, dec *ast.FuncDecl) {
	wm := &wireMsg{
		m: &WireMessage{
			Name:    "envelope",
			Package: x.rel,
			Kind:    "envelope",
		},
		encPos: enc.Pos(),
		decPos: dec.Pos(),
	}
	x.ext.msgs = append(x.ext.msgs, wm)

	encFields, subject, encNotes := x.interpEnvelopeEncoder(enc)
	if subject != "" {
		wm.m.Struct = subject
	}
	wm.notes = append(wm.notes, encNotes...)
	if len(encNotes) == 0 {
		wm.enc, wm.encOK = encFields, true
	}
	decFields, decNotes := x.interpEnvelopeDecoder(dec)
	wm.notes = append(wm.notes, decNotes...)
	if len(decNotes) == 0 {
		wm.dec, wm.decOK = decFields, true
	}
}

// addStructEntry registers (or completes) the schema entry of an embedded
// structure interpreted through a helper codec. The encoder side fills enc,
// the decoder side fills dec; both must agree for wiresym to stay quiet.
func (x *wirePkg) addStructEntry(sum *wireStructSummary, fromEncoder bool) {
	wm := x.structSeen[sum.spath]
	if wm == nil {
		// Top-level messages own their struct path; never shadow them.
		if existing := x.ext.byStruct[sum.spath]; existing != nil {
			return
		}
		for _, m := range x.ext.msgs {
			if m.m.Struct == sum.spath {
				return
			}
		}
		wm = &wireMsg{
			m: &WireMessage{
				Name:    sum.ref,
				Struct:  sum.spath,
				Package: x.rel,
				Kind:    "struct",
			},
			encPos: sum.pos,
			decPos: sum.pos,
		}
		x.structSeen[sum.spath] = wm
		x.ext.msgs = append(x.ext.msgs, wm)
	}
	wm.notes = append(wm.notes, sum.notes...)
	if fromEncoder {
		wm.encPos = sum.pos
		if len(sum.notes) == 0 {
			wm.enc, wm.encOK = sum.fields, true
		}
	} else {
		wm.decPos = sum.pos
		if len(sum.notes) == 0 {
			wm.dec, wm.decOK = sum.fields, true
		}
	}
}
