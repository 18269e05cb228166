package lint

// wireschema.go is the data model of the v4 symbolic wire-schema engine: the
// machine-readable byte-level schema extracted from the binary codecs
// (wireextract.go drives extraction, wireenc.go/wiredec.go interpret the
// encoder and decoder ASTs). The model is deliberately JSON-stable — the
// committed docs/wire.schema.json baseline is this structure marshaled with
// sorted messages — and deliberately small: field order, encodings, flag
// bits, conditional presence, and length-prefixed nesting. That is exactly
// the information two peers must agree on byte-for-byte.

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
)

// Wire field encodings. All multi-byte integers are big-endian (the
// project-wide convention of docs/WIRE.md); varints are Go's
// encoding/binary LEB128 forms.
const (
	wireEncU64     = "u64"      // fixed 8 bytes
	wireEncU32     = "u32"      // fixed 4 bytes
	wireEncU16     = "u16"      // fixed 2 bytes
	wireEncU8      = "u8"       // one byte
	wireEncFlags   = "flags"    // one byte of named bits (see WireField.Bits)
	wireEncUvarint = "uvarint"  // unsigned LEB128
	wireEncVarint  = "varint"   // zigzag-signed LEB128
	wireEncBool    = "bool"     // one byte, 0 or 1
	wireEncString  = "string"   // uvarint byte length, then the bytes
	wireEncBytes   = "bytes"    // uvarint byte length, then the bytes
	wireEncOpt     = "optbytes" // uvarint n: 0 = absent (nil), else n-1 bytes
	wireEncSlice   = "slice"    // uvarint n: 0 = nil, else n-1 elements
	wireEncStruct  = "struct"   // nested structure, fields in order
)

// WireSchema is the extracted wire surface of the module: every binary
// message body, every embedded wire structure, and the mux envelope.
type WireSchema struct {
	// Format versions the schema file itself (not the wire protocol).
	Format int `json:"format"`
	// Module is the Go module the schema was extracted from.
	Module string `json:"module,omitempty"`
	// Version is the one wire protocol version every layout belongs to: the
	// value of the wire packages' muxVersion constant (0 when none declares
	// it).
	Version int `json:"version"`
	// Messages is sorted by (package, name) for a stable diffable baseline.
	Messages []*WireMessage `json:"messages"`
}

// WireMessage is one extracted layout: a top-level message body, an embedded
// structure (referenced by slice/struct fields), or the mux envelope.
type WireMessage struct {
	// Name is the wire-level name: the message type string with direction
	// ("lookup request", "store2 request"), the Go type name for embedded
	// structures ("Span"), or "envelope".
	Name string `json:"name"`
	// Struct is the module-relative Go type ("internal/netnode.lookupReq").
	Struct string `json:"struct"`
	// Package is the module-relative import path of the package whose codec
	// functions encode this message.
	Package string `json:"package"`
	// Kind is "message" (top-level body), "struct" (embedded), or
	// "envelope".
	Kind string `json:"kind"`
	// Fields is the byte-level layout in encoding order.
	Fields []*WireField `json:"fields"`
}

// WireField is one field of a layout.
type WireField struct {
	// Name is the Go field (or local) name the value comes from; empty for
	// unnamed slice elements.
	Name string `json:"name,omitempty"`
	// Enc is one of the wireEnc* encodings.
	Enc string `json:"enc"`
	// Cond names the flag bit that gates the field's presence, when the
	// field is conditional ("envHasNonce").
	Cond string `json:"cond,omitempty"`
	// Bits are the defined bits of a flags byte, sorted by mask.
	Bits []*WireBit `json:"bits,omitempty"`
	// Ref is the name of the embedded structure for struct fields and
	// slices of structures ("Span", "Info").
	Ref string `json:"ref,omitempty"`
	// Elem is the element layout of a slice (a single unnamed field for
	// scalar elements, the structure's fields otherwise) or the nested
	// fields of a struct field.
	Elem []*WireField `json:"elem,omitempty"`
}

// WireBit is one defined bit of a flags byte.
type WireBit struct {
	Mask uint64 `json:"mask"`
	Name string `json:"name"`
}

// wireSchemaFormat is the current schema file format version: 2 moved the
// wire version from each message to the schema.
const wireSchemaFormat = 2

// sortMessages puts the schema in its canonical order.
func (s *WireSchema) sortMessages() {
	sort.Slice(s.Messages, func(i, j int) bool {
		a, b := s.Messages[i], s.Messages[j]
		if a.Package != b.Package {
			return a.Package < b.Package
		}
		return a.Name < b.Name
	})
}

// EncodeJSON renders the schema in its canonical committed form: indented,
// message-sorted, newline-terminated.
func (s *WireSchema) EncodeJSON() ([]byte, error) {
	s.sortMessages()
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// ParseWireSchema parses a schema previously produced by EncodeJSON.
func ParseWireSchema(data []byte) (*WireSchema, error) {
	var s WireSchema
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("wire schema: %w", err)
	}
	if s.Format != wireSchemaFormat {
		return nil, fmt.Errorf("wire schema: unsupported format %d (want %d)", s.Format, wireSchemaFormat)
	}
	return &s, nil
}

// LoadWireSchema reads and parses a schema baseline file.
func LoadWireSchema(path string) (*WireSchema, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return ParseWireSchema(data)
}

// MessageByName returns the message whose wire name or Go struct base name
// matches (case-insensitively), or nil.
func (s *WireSchema) MessageByName(name string) *WireMessage {
	for _, m := range s.Messages {
		if strings.EqualFold(m.Name, name) || strings.EqualFold(structBase(m.Struct), name) {
			return m
		}
	}
	return nil
}

// structBase returns the type name behind a package-qualified struct path.
func structBase(s string) string {
	if i := strings.LastIndexByte(s, '.'); i >= 0 {
		return s[i+1:]
	}
	return s
}

// ---- seed synthesis (schema-guided fuzzing) ----

// Seed synthesizes one minimal well-formed encoding of the message: every
// flag bit set (so every conditional field is present), every slice present
// with one element, every optional byte string present with one byte. A
// seed decodes cleanly through the message's strict decoder, which is what
// makes it a useful fuzz-corpus starting point: the fuzzer begins inside
// the reachable layout instead of having to discover the framing.
func (m *WireMessage) Seed() []byte {
	return appendSeedFields(nil, m.Fields)
}

func appendSeedFields(b []byte, fields []*WireField) []byte {
	// The flags value of this layout level: all defined bits set.
	var flagsVal uint64
	masks := make(map[string]uint64)
	for _, f := range fields {
		if f.Enc == wireEncFlags {
			for _, bit := range f.Bits {
				flagsVal |= bit.Mask
				masks[bit.Name] = bit.Mask
			}
		}
	}
	for _, f := range fields {
		if f.Cond != "" {
			if mask, ok := masks[f.Cond]; ok && flagsVal&mask == 0 {
				continue
			}
		}
		b = appendSeedField(b, f, flagsVal)
	}
	return b
}

func appendSeedField(b []byte, f *WireField, flagsVal uint64) []byte {
	switch f.Enc {
	case wireEncU64:
		var x [8]byte
		binary.BigEndian.PutUint64(x[:], 1)
		b = append(b, x[:]...)
	case wireEncU32:
		var x [4]byte
		binary.BigEndian.PutUint32(x[:], 1)
		b = append(b, x[:]...)
	case wireEncU16:
		var x [2]byte
		binary.BigEndian.PutUint16(x[:], 1)
		b = append(b, x[:]...)
	case wireEncU8:
		b = append(b, 1)
	case wireEncFlags:
		b = append(b, byte(flagsVal))
	case wireEncUvarint:
		b = binary.AppendUvarint(b, 1)
	case wireEncVarint:
		b = binary.AppendVarint(b, 1)
	case wireEncBool:
		b = append(b, 1)
	case wireEncString, wireEncBytes:
		b = binary.AppendUvarint(b, 1)
		b = append(b, 'a')
	case wireEncOpt:
		b = binary.AppendUvarint(b, 2) // present, length 1
		b = append(b, 'a')
	case wireEncSlice:
		b = binary.AppendUvarint(b, 2) // present, one element
		b = appendSeedFields(b, f.Elem)
	case wireEncStruct:
		b = appendSeedFields(b, f.Elem)
	}
	return b
}

// ---- layout comparison and rendering ----

// wireDiff describes the first point where two layouts disagree.
type wireDiff struct {
	path string // human path to the divergence ("field 3", "Spans elem field 2")
	a, b string // the two sides' renderings at that point
}

// diffWireFields compares two layouts structurally and returns the first
// divergence, or nil when they agree. Field names are compared
// case-insensitively (an encoder may read a local while the decoder writes
// the struct field) and only when both sides have one. Nested layouts that
// share a named Ref are not recursed into — the referenced structure is
// compared once through its own entry, not once per use.
func diffWireFields(prefix string, a, b []*WireField) *wireDiff {
	n := len(a)
	if len(b) > n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		path := fmt.Sprintf("%sfield %d", prefix, i+1)
		if i >= len(a) {
			return &wireDiff{path: path, a: "(absent)", b: renderWireField(b[i])}
		}
		if i >= len(b) {
			return &wireDiff{path: path, a: renderWireField(a[i]), b: "(absent)"}
		}
		fa, fb := a[i], b[i]
		if fa.Name != "" && fb.Name != "" && !strings.EqualFold(fa.Name, fb.Name) {
			return &wireDiff{path: path, a: renderWireField(fa), b: renderWireField(fb)}
		}
		if fa.Enc != fb.Enc || fa.Cond != fb.Cond || !strings.EqualFold(fa.Ref, fb.Ref) ||
			renderWireBits(fa.Bits) != renderWireBits(fb.Bits) {
			return &wireDiff{path: path, a: renderWireField(fa), b: renderWireField(fb)}
		}
		if fa.Ref == "" || fb.Ref == "" {
			sub := fmt.Sprintf("%s%s elem ", prefix, fieldLabel(fa, i))
			if d := diffWireFields(sub, fa.Elem, fb.Elem); d != nil {
				return d
			}
		}
	}
	return nil
}

func fieldLabel(f *WireField, i int) string {
	if f.Name != "" {
		return f.Name
	}
	return fmt.Sprintf("field %d", i+1)
}

// renderWireField renders one field compactly: "Key:u64",
// "Value:optbytes", "Spans:slice<Span>", "flags:flags{0x1:routeAround}".
func renderWireField(f *WireField) string {
	var b strings.Builder
	if f.Name != "" {
		b.WriteString(f.Name)
		b.WriteByte(':')
	}
	b.WriteString(f.Enc)
	if f.Ref != "" {
		fmt.Fprintf(&b, "<%s>", f.Ref)
	} else if len(f.Elem) > 0 {
		fmt.Fprintf(&b, "<%s>", renderWireFields(f.Elem))
	}
	if len(f.Bits) > 0 {
		fmt.Fprintf(&b, "{%s}", renderWireBits(f.Bits))
	}
	if f.Cond != "" {
		fmt.Fprintf(&b, "?%s", f.Cond)
	}
	return b.String()
}

// renderWireFields renders a whole layout on one line.
func renderWireFields(fields []*WireField) string {
	parts := make([]string, len(fields))
	for i, f := range fields {
		parts[i] = renderWireField(f)
	}
	return strings.Join(parts, " ")
}

func renderWireBits(bits []*WireBit) string {
	if len(bits) == 0 {
		return ""
	}
	sorted := append([]*WireBit(nil), bits...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Mask < sorted[j].Mask })
	parts := make([]string, len(sorted))
	for i, b := range sorted {
		parts[i] = fmt.Sprintf("0x%x:%s", b.Mask, b.Name)
	}
	return strings.Join(parts, ",")
}
