package netnode

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"

	"github.com/canon-dht/canon/internal/transport"
)

// The schema and the specification are held to what the field walks say, not
// the other way round: TestWireSchema renders the walks' describe output in
// the committed form of docs/wire.schema.json and compares byte for byte;
// TestWireDocTables compares the name and encoding columns of the field
// tables in docs/WIRE.md with the same output.

var updateSchema = flag.Bool("update", false,
	"rewrite docs/wire.schema.json from the field walks (refused when a committed layout changed and the wire version did not)")

const (
	wireSchemaPath = "../../docs/wire.schema.json"
	wireDocPath    = "../../docs/WIRE.md"
	wireModule     = "github.com/canon-dht/canon"
)

// The committed schema file, format 2: one wire version for every layout,
// messages sorted by (package, name).
type schemaFile struct {
	Format   int              `json:"format"`
	Module   string           `json:"module,omitempty"`
	Version  int              `json:"version"`
	Messages []*schemaMessage `json:"messages"`
}

type schemaMessage struct {
	Name    string         `json:"name"`
	Struct  string         `json:"struct"`
	Package string         `json:"package"`
	Kind    string         `json:"kind"`
	Fields  []*schemaField `json:"fields"`
}

type schemaField struct {
	Name string         `json:"name,omitempty"`
	Enc  string         `json:"enc"`
	Cond string         `json:"cond,omitempty"`
	Bits []schemaBit    `json:"bits,omitempty"`
	Ref  string         `json:"ref,omitempty"`
	Elem []*schemaField `json:"elem,omitempty"`
}

type schemaBit struct {
	Mask uint64 `json:"mask"`
	Name string `json:"name"`
}

// layoutTree nests the flat rows of one walk by depth and names, from the Go
// types, the structure each struct field and struct-element slice refers to.
func layoutTree(rows []transport.WireField, typ reflect.Type) []*schemaField {
	fields, rest := layoutLevel(rows, 0, typ)
	if len(rest) != 0 {
		panic(fmt.Sprintf("layout of %v: row %+v is nested under nothing", typ, rest[0]))
	}
	return fields
}

func layoutLevel(rows []transport.WireField, depth int, typ reflect.Type) ([]*schemaField, []transport.WireField) {
	var fields []*schemaField
	for len(rows) > 0 && rows[0].Depth == depth {
		row := rows[0]
		rows = rows[1:]
		f := &schemaField{Name: row.Name, Enc: row.Enc, Cond: row.Cond}
		for i, name := range row.Bits {
			f.Bits = append(f.Bits, schemaBit{Mask: 1 << i, Name: name})
		}
		if row.Enc == "struct" || row.Enc == "slice" {
			sf, ok := typ.FieldByName(row.Name)
			if !ok {
				panic(fmt.Sprintf("layout of %v names field %q, which the type lacks", typ, row.Name))
			}
			inner := sf.Type
			if row.Enc == "slice" {
				inner = inner.Elem()
			}
			if inner.Kind() == reflect.Struct {
				f.Ref = inner.Name()
			}
			f.Elem, rows = layoutLevel(rows, depth+1, inner)
		}
		fields = append(fields, f)
	}
	return fields, rows
}

// currentSchema is the schema the code states: one entry per registry row.
func currentSchema() *schemaFile {
	s := &schemaFile{Format: 2, Module: wireModule, Version: wireVersion}
	for _, e := range wireRegistry() {
		typ := reflect.TypeOf(e.sample)
		pkg := "internal/netnode"
		if e.kind == "envelope" {
			pkg = "internal/transport"
		}
		s.Messages = append(s.Messages, &schemaMessage{
			Name:    e.name,
			Struct:  strings.TrimPrefix(typ.PkgPath(), wireModule+"/") + "." + typ.Name(),
			Package: pkg,
			Kind:    e.kind,
			Fields:  layoutTree(describeWire(e.sample), typ),
		})
	}
	sort.Slice(s.Messages, func(i, j int) bool {
		a, b := s.Messages[i], s.Messages[j]
		if a.Package != b.Package {
			return a.Package < b.Package
		}
		return a.Name < b.Name
	})
	return s
}

func (s *schemaFile) encode(t *testing.T) []byte {
	t.Helper()
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return append(data, '\n')
}

// brokenLayouts lists the committed layouts the current code no longer
// matches: changed fields or a removed entry. A new entry breaks nothing — an
// older build answers an unknown message type with an error response.
func brokenLayouts(committed, current *schemaFile) []string {
	now := make(map[string]*schemaMessage)
	for _, m := range current.Messages {
		now[m.Package+"|"+m.Name] = m
	}
	var broken []string
	for _, old := range committed.Messages {
		m := now[old.Package+"|"+old.Name]
		if m == nil {
			broken = append(broken, old.Name+" (removed)")
		} else if !reflect.DeepEqual(old.Fields, m.Fields) {
			broken = append(broken, old.Name)
		}
	}
	return broken
}

// TestWireSchema holds docs/wire.schema.json to the field walks, byte for
// byte. With -update it rewrites the file — unless a committed layout
// changed while the wire version stood still: peers at that version would
// mis-parse the new bytes, and nothing but this refusal can know that.
func TestWireSchema(t *testing.T) {
	current := currentSchema()
	got := current.encode(t)
	want, err := os.ReadFile(wireSchemaPath)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, want) {
		return
	}
	var committed schemaFile
	if err := json.Unmarshal(want, &committed); err != nil {
		t.Fatalf("%s: %v", wireSchemaPath, err)
	}
	if broken := brokenLayouts(&committed, current); len(broken) > 0 && committed.Version == current.Version {
		t.Fatalf("wire-breaking change at unchanged wire version %d in: %s\nbump muxVersion in internal/transport/codec.go (docs/WIRE.md §6), or revert the walk; -update refuses until then\n%s",
			current.Version, strings.Join(broken, ", "), firstLineDiff(want, got))
	}
	if !*updateSchema {
		t.Fatalf("%s is out of date with the field walks; run go test ./internal/netnode -run TestWireSchema -update and commit the result\n%s",
			wireSchemaPath, firstLineDiff(want, got))
	}
	if err := os.WriteFile(wireSchemaPath, got, 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("rewrote %s", wireSchemaPath)
}

// ---- docs/WIRE.md field tables ----

// docRow is one documented field: a name, and an encoding that is a scalar
// token, "optional bytes", a structure name, or a slice of elemRef / of the
// inline element rows.
type docRow struct {
	name, enc, elemRef string
	elems              []docRow
}

// parseWireDoc extracts the field tables by the document's convention: a
// bold "**name**" lead-in names a message or structure and the next fenced
// block holds its table, one "name  encoding  comment" row per line (two or
// more spaces between columns). A "slice of:" encoding nests its element rows
// at a small indent; deeper indents are wrapped comment text. Headings reset
// the pending name, so prose bolds never claim a stray fence.
func parseWireDoc(text string) map[string][]docRow {
	blocks := make(map[string][]docRow)
	lines := strings.Split(text, "\n")
	pending := ""
	for i := 0; i < len(lines); i++ {
		line := lines[i]
		switch {
		case strings.HasPrefix(line, "#"):
			pending = ""
		case strings.HasPrefix(line, "**"):
			if end := strings.Index(line[2:], "**"); end > 0 {
				pending = line[2 : 2+end]
			}
		case strings.HasPrefix(line, "```"):
			end := i + 1
			for end < len(lines) && !strings.HasPrefix(lines[end], "```") {
				end++
			}
			if pending != "" {
				blocks[pending] = parseDocRows(lines[i+1 : min(end, len(lines))])
				pending = ""
			}
			i = end
		}
	}
	return blocks
}

func parseDocRows(lines []string) []docRow {
	var rows []docRow
	for _, line := range lines {
		trimmed := strings.TrimLeft(line, " ")
		indent := len(line) - len(trimmed)
		if trimmed == "" || indent > 4 {
			continue
		}
		var cols []string
		for _, col := range strings.Split(trimmed, "  ") {
			if col = strings.TrimSpace(col); col != "" {
				cols = append(cols, col)
			}
		}
		if len(cols) < 2 {
			continue
		}
		row := docRow{name: cols[0], enc: cols[1]}
		if row.enc == "slice of:" {
			row.enc = "slice"
		} else if ref, ok := strings.CutPrefix(row.enc, "slice<"); ok {
			row.enc, row.elemRef = "slice", strings.TrimSuffix(ref, ">")
		}
		if indent > 0 && len(rows) > 0 && rows[len(rows)-1].enc == "slice" {
			last := &rows[len(rows)-1]
			last.elems = append(last.elems, row)
			continue
		}
		rows = append(rows, row)
	}
	return rows
}

// docEncodings maps a schema encoding to the token the document uses.
var docEncodings = map[string]string{
	"u64": "u64", "uvarint": "uvarint", "varint": "varint", "bool": "bool",
	"string": "string", "bytes": "bytes", "optbytes": "optional bytes", "flags": "u8",
}

// diffDocRows returns the first disagreement between a documented table and
// a layout, or "". typeNames maps a registry name to its Go type name, for
// tables that refer to a message ("slice<store2 request>").
func diffDocRows(rows []docRow, fields []*schemaField, typeNames map[string]string) string {
	for i := 0; i < len(rows) || i < len(fields); i++ {
		if i >= len(rows) {
			return fmt.Sprintf("field %d (%s %s) is in the walk but not in the table", i+1, fields[i].Name, fields[i].Enc)
		}
		if i >= len(fields) {
			return fmt.Sprintf("field %d (%s %s) is in the table but not in the walk", i+1, rows[i].name, rows[i].enc)
		}
		row, f := rows[i], fields[i]
		if !strings.EqualFold(row.name, f.Name) {
			return fmt.Sprintf("field %d is %q in the table and %q in the walk", i+1, row.name, f.Name)
		}
		want := docEncodings[f.Enc]
		if f.Enc == "struct" {
			want = f.Ref
		} else if f.Enc == "slice" {
			want = "slice"
		}
		if !strings.EqualFold(row.enc, want) {
			return fmt.Sprintf("field %d (%s) is %q in the table and %q in the walk", i+1, f.Name, row.enc, want)
		}
		if f.Enc != "slice" {
			continue
		}
		switch {
		case len(row.elems) > 0:
			if d := diffDocRows(row.elems, f.Elem, typeNames); d != "" {
				return fmt.Sprintf("field %d (%s) element: %s", i+1, f.Name, d)
			}
		case f.Ref != "":
			ref := row.elemRef
			if name, ok := typeNames[ref]; ok {
				ref = name
			}
			if !strings.EqualFold(ref, f.Ref) {
				return fmt.Sprintf("field %d (%s) is a slice of %q in the table and of %q in the walk", i+1, f.Name, row.elemRef, f.Ref)
			}
		case row.elemRef != docEncodings[f.Elem[0].Enc]:
			return fmt.Sprintf("field %d (%s) is a slice of %q in the table and of %q in the walk", i+1, f.Name, row.elemRef, f.Elem[0].Enc)
		}
	}
	return ""
}

// TestWireDocTables holds the field tables of docs/WIRE.md to the walks:
// every table names a registry row and agrees with it on field names, order
// and encodings, and every message has a table. (The envelope is specified
// in §3 as an offset table with prose, not as a field table.)
func TestWireDocTables(t *testing.T) {
	text, err := os.ReadFile(wireDocPath)
	if err != nil {
		t.Fatal(err)
	}
	blocks := parseWireDoc(string(text))
	typeNames := make(map[string]string)
	for _, e := range wireRegistry() {
		typeNames[e.name] = reflect.TypeOf(e.sample).Name()
	}
	documented := make(map[string]bool)
	for _, m := range currentSchema().Messages {
		rows, ok := blocks[m.Name]
		if !ok {
			if m.Kind == "message" {
				t.Errorf("%s has no field table in %s", m.Name, wireDocPath)
			}
			continue
		}
		documented[m.Name] = true
		if d := diffDocRows(rows, m.Fields, typeNames); d != "" {
			t.Errorf("%s table of %s: %s", wireDocPath, m.Name, d)
		}
	}
	for name := range blocks {
		if !documented[name] {
			t.Errorf("%s has a field table for %q, which is no wire layout", wireDocPath, name)
		}
	}
}
