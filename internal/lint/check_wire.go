package lint

// The four v4 wire checks, all consumers of the symbolic extraction
// (wireextract.go) computed once per run:
//
//   wiresym    — the encoder and decoder of one message disagree on the
//                byte layout (or a codec defeated the interpreters, which
//                is reported rather than silently unchecked).
//   wirebreak  — the extracted schema differs from the committed baseline
//                (docs/wire.schema.json) in a wire-breaking way while the
//                wire version stands still.
//   wirebounds — a decoder preallocates from a wire-controlled count with
//                no cap: a one-line remote-OOM.
//   wiredoc    — the docs/WIRE.md field tables drift from the code.

import (
	"fmt"
	"os"
	"sort"
	"strings"
)

// wireChecksEnabled reports whether any wire check runs under cfg, which is
// what decides whether Run computes the extraction.
func wireChecksEnabled(cfg *Config) bool {
	return cfg.enabled("wiresym") || cfg.enabled("wirebreak") ||
		cfg.enabled("wirebounds") || cfg.enabled("wiredoc")
}

// ---- wiresym ----

var checkWireSym = Check{
	Name: "wiresym",
	Doc:  "encoder/decoder byte-layout disagreement in a binary codec pair (symbolic round-trip)",
	RunModule: func(mp *ModulePass) {
		if mp.wire == nil {
			return
		}
		for _, wm := range mp.wire.msgs {
			if len(wm.notes) > 0 {
				seen := make(map[string]bool)
				for _, n := range wm.notes {
					if seen[n.msg] {
						continue
					}
					seen[n.msg] = true
					mp.Report(n.pos, nil,
						"wire schema extraction incomplete for %s: %s (layout not verifiable; simplify the codec to the documented idioms)",
						wm.m.Name, n.msg)
				}
				continue
			}
			if !wm.encOK || !wm.decOK {
				continue
			}
			if d := diffWireFields("", wm.enc, wm.dec); d != nil {
				mp.Report(wm.decPos, []string{
					"encoder layout: " + renderWireFields(wm.enc),
					"decoder layout: " + renderWireFields(wm.dec),
				}, "encoder and decoder of %s disagree at %s: encoder writes %s, decoder reads %s",
					wm.m.Name, d.path, d.a, d.b)
			}
		}
	},
}

// ---- wirebreak ----

var checkWireBreak = Check{
	Name: "wirebreak",
	Doc:  "extracted wire schema differs from the committed baseline without a version bump (breaking change gate)",
	RunModule: func(mp *ModulePass) {
		ext := mp.wire
		if ext == nil || mp.Cfg.WireBaselinePath == "" || !ext.anchorPos.IsValid() {
			return
		}
		path := mp.Cfg.wirePath(mp.Cfg.WireBaselinePath)
		data, err := os.ReadFile(path)
		if err != nil {
			mp.Report(ext.anchorPos, nil,
				"no wire schema baseline at %s; run canonvet -write-schema and commit the result",
				mp.Cfg.WireBaselinePath)
			return
		}
		base, err := ParseWireSchema(data)
		if err != nil {
			mp.Report(ext.anchorPos, nil, "unreadable wire schema baseline %s: %v",
				mp.Cfg.WireBaselinePath, err)
			return
		}

		// One version covers every layout: once it has moved, the baseline is
		// stale as a whole and per-message drift is not judged.
		if base.Version != ext.schema.Version {
			mp.Report(ext.anchorPos, nil,
				"wire schema baseline out of date: the wire version moved from %d to %d; run canonvet -write-schema and commit the result",
				base.Version, ext.schema.Version)
			return
		}

		current := make(map[string]*wireMsg) // keyed by package|name
		for _, wm := range ext.msgs {
			current[wm.m.Package+"|"+wm.m.Name] = wm
		}
		judged := make(map[string]bool)
		for _, bm := range base.Messages {
			if !ext.loaded[bm.Package] {
				continue // partial run: this package was not analyzed
			}
			key := bm.Package + "|" + bm.Name
			judged[key] = true
			wm := current[key]
			if wm == nil {
				pos := ext.pkgPos[bm.Package]
				if !pos.IsValid() {
					pos = ext.anchorPos
				}
				mp.Report(pos, nil,
					"wire message %s (%s) was removed from %s: decoders in the field still send it; gate removals behind a version bump and refresh the baseline (canonvet -write-schema)",
					bm.Name, bm.Struct, bm.Package)
				continue
			}
			if len(wm.notes) > 0 {
				continue // wiresym reports the extraction gap
			}
			d := diffWireFields("", bm.Fields, wm.m.Fields)
			if d == nil {
				continue
			}
			mp.Report(wm.encPos, []string{
				"baseline layout: " + renderWireFields(bm.Fields),
				"current layout:  " + renderWireFields(wm.m.Fields),
			}, "wire-breaking change in %s at %s: baseline %s, current %s (same wire version %d; bump the version or revert, then canonvet -write-schema)",
				bm.Name, d.path, d.a, d.b, base.Version)
		}
		var fresh []*wireMsg
		for key, wm := range current {
			if !judged[key] {
				fresh = append(fresh, wm)
			}
		}
		sort.Slice(fresh, func(i, j int) bool { return fresh[i].m.Name < fresh[j].m.Name })
		for _, wm := range fresh {
			if len(wm.notes) > 0 {
				continue
			}
			mp.Report(wm.encPos, nil,
				"wire message %s is not in the schema baseline; run canonvet -write-schema and commit the result",
				wm.m.Name)
		}
	},
}

// ---- wirebounds ----

var checkWireBounds = Check{
	Name: "wirebounds",
	Doc:  "decoder preallocation sized by a wire-controlled count with no cap (remote OOM)",
	RunModule: func(mp *ModulePass) {
		if mp.wire == nil {
			return
		}
		for _, a := range mp.wire.allocs {
			countAt := mp.Fset.Position(a.countPos)
			mp.Report(a.pos, []string{
				fmt.Sprintf("count %q read from the wire at %s:%d", a.count, shortPath(countAt.Filename), countAt.Line),
				fmt.Sprintf("make([]%s, ...) in %s reserves %d bytes per count unit", a.elem, a.fn, a.elemSize),
			}, "%s preallocates []%s from wire-controlled count %q with no cap: a hostile peer OOMs the node with a few header bytes; bound it with min(%s, const)",
				a.fn, a.elem, a.count, a.count)
		}
	},
}

// ---- wiredoc ----

var checkWireDoc = Check{
	Name: "wiredoc",
	Doc:  "docs/WIRE.md field tables drift from the layouts the codecs implement",
	RunModule: func(mp *ModulePass) {
		ext := mp.wire
		if ext == nil || mp.Cfg.WireDocPath == "" || !ext.anchorPos.IsValid() {
			return
		}
		data, err := os.ReadFile(mp.Cfg.wirePath(mp.Cfg.WireDocPath))
		if err != nil {
			mp.Report(ext.anchorPos, nil, "wire specification %s is missing: %v", mp.Cfg.WireDocPath, err)
			return
		}
		blocks := parseWireDoc(string(data))

		// Index the extracted messages by every name a doc block may use.
		byName := make(map[string]*wireMsg)
		for _, wm := range ext.msgs {
			if wm.m.Kind == "envelope" {
				continue // the envelope is prose+table in §3, not a field fence
			}
			byName[strings.ToLower(wm.m.Name)] = wm
			byName[strings.ToLower(structBase(wm.m.Struct))] = wm
		}

		documented := make(map[*wireMsg]bool)
		for _, blk := range blocks {
			wm := byName[strings.ToLower(blk.name)]
			if wm == nil {
				if ext.allWireLoaded {
					mp.Report(ext.anchorPos, nil,
						"%s documents wire message %q but no binary codec implements it; update the document or add the codec",
						mp.Cfg.WireDocPath, blk.name)
				}
				continue
			}
			documented[wm] = true
			if len(wm.notes) > 0 {
				continue
			}
			if msg := diffWireDoc(ext, blk.rows, wm.m.Fields); msg != "" {
				mp.Report(wm.encPos, []string{
					"documented layout: " + renderDocRows(blk.rows),
					"codec layout:      " + renderWireFields(wm.m.Fields),
				}, "%s drift for %s: %s", mp.Cfg.WireDocPath, wm.m.Name, msg)
			}
		}
		if ext.allWireLoaded {
			for _, wm := range ext.msgs {
				if wm.m.Kind != "message" || documented[wm] || len(wm.notes) > 0 {
					continue
				}
				mp.Report(wm.encPos, nil,
					"wire message %s has a binary codec but no field table in %s; document the layout",
					wm.m.Name, mp.Cfg.WireDocPath)
			}
		}
	},
}

// diffWireDoc compares one documented field table against the extracted
// layout and returns a description of the first divergence, or "".
func diffWireDoc(ext *wireExtraction, rows []wireDocRow, fields []*WireField) string {
	n := len(rows)
	if len(fields) > n {
		n = len(fields)
	}
	for i := 0; i < n; i++ {
		if i >= len(rows) {
			return fmt.Sprintf("field %d (%s) is implemented but undocumented", i+1, renderWireField(fields[i]))
		}
		if i >= len(fields) {
			return fmt.Sprintf("field %d is documented as %q %s but the codec has no such field", i+1, rows[i].name, rows[i].enc)
		}
		row, f := rows[i], fields[i]
		if !strings.EqualFold(row.name, f.Name) {
			return fmt.Sprintf("field %d is documented as %q but the codec calls it %q", i+1, row.name, f.Name)
		}
		if msg := diffDocEnc(ext, row, f); msg != "" {
			return fmt.Sprintf("field %d (%q) %s", i+1, row.name, msg)
		}
	}
	return ""
}

// diffDocEnc compares one documented encoding against one extracted field.
func diffDocEnc(ext *wireExtraction, row wireDocRow, f *WireField) string {
	switch row.enc {
	case "u8":
		// The documented u8 covers both raw bytes and defined-bit flag bytes.
		if f.Enc != wireEncU8 && f.Enc != wireEncFlags {
			return fmt.Sprintf("is documented as u8 but encoded as %s", f.Enc)
		}
		return ""
	case "optional bytes":
		if f.Enc != wireEncOpt {
			return fmt.Sprintf("is documented as optional bytes but encoded as %s", f.Enc)
		}
		return ""
	case "slice":
		if f.Enc != wireEncSlice {
			return fmt.Sprintf("is documented as a slice but encoded as %s", f.Enc)
		}
		if row.elemRef != "" {
			return diffDocRef(ext, row.elemRef, f)
		}
		if len(row.elems) > 0 {
			if d := diffWireDoc(ext, row.elems, f.Elem); d != "" {
				return "element " + d
			}
		}
		return ""
	default:
		if isDocScalar(row.enc) {
			if row.enc != f.Enc {
				return fmt.Sprintf("is documented as %s but encoded as %s", row.enc, f.Enc)
			}
			return ""
		}
		// A structure reference (Info, Span).
		if f.Enc != wireEncStruct {
			return fmt.Sprintf("is documented as structure %s but encoded as %s", row.enc, f.Enc)
		}
		return diffDocRef(ext, row.enc, f)
	}
}

// diffDocRef resolves a documented structure/message reference and compares
// it against the extracted field's Ref.
func diffDocRef(ext *wireExtraction, docRef string, f *WireField) string {
	want := docRef
	// "store2 request" names a message; its struct base is the codec's Ref.
	if m := ext.schema.MessageByName(docRef); m != nil {
		want = structBase(m.Struct)
	}
	if f.Ref == "" && len(f.Elem) == 1 && isDocScalar(docRef) {
		// slice<u64>: a scalar element, not a reference.
		if f.Elem[0].Enc != docRef {
			return fmt.Sprintf("is documented as slice<%s> but elements are encoded as %s", docRef, f.Elem[0].Enc)
		}
		return ""
	}
	if !strings.EqualFold(want, f.Ref) {
		return fmt.Sprintf("is documented as referencing %s but the codec encodes %s", docRef, f.Ref)
	}
	return ""
}

func isDocScalar(enc string) bool {
	switch enc {
	case wireEncU64, wireEncU32, wireEncU16, wireEncU8, wireEncUvarint,
		wireEncVarint, wireEncBool, wireEncString, wireEncBytes:
		return true
	}
	return false
}

// renderDocRows renders a documented table compactly for evidence chains.
func renderDocRows(rows []wireDocRow) string {
	parts := make([]string, len(rows))
	for i, r := range rows {
		s := r.name + ":" + r.enc
		if r.elemRef != "" {
			s += "<" + r.elemRef + ">"
		} else if len(r.elems) > 0 {
			s += "<" + renderDocRows(r.elems) + ">"
		}
		parts[i] = s
	}
	return strings.Join(parts, " ")
}
