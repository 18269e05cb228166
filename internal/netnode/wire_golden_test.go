package netnode

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"
)

const wireGoldenPath = "testdata/wire_golden.txt"

// goldenInstances returns the two instances of a registry row the golden
// file pins: the fully populated sample and the zero value of its type.
func goldenInstances(e wireEntry) map[string]any {
	return map[string]any{
		"full": e.sample,
		"zero": reflect.Zero(reflect.TypeOf(e.sample)).Interface(),
	}
}

// renderWireGolden encodes every registry row with the current encoders in
// the golden file's format: a version header, then "name|instance|hex".
func renderWireGolden(t *testing.T) []byte {
	t.Helper()
	var out bytes.Buffer
	fmt.Fprintf(&out, "# Bytes every wire body and the envelope encode to at the wire version below.\n")
	fmt.Fprintf(&out, "# The file changes only together with the version: delete it and run the test to rewrite it.\n")
	fmt.Fprintf(&out, "version %d\n", wireVersion)
	for _, e := range wireRegistry() {
		inst := goldenInstances(e)
		for _, which := range []string{"full", "zero"} {
			enc, err := encodeWire(inst[which])
			if err != nil {
				t.Fatalf("encode %s %s: %v", e.name, which, err)
			}
			fmt.Fprintf(&out, "%s|%s|%s\n", e.name, which, hex.EncodeToString(enc))
		}
	}
	return out.Bytes()
}

// TestWireGoldenBytes pins the bytes on the wire: every body, every embedded
// structure and the envelope, fully populated and zero-valued, must encode
// to exactly the committed bytes and those bytes must decode back to the
// same value. The file was produced by the hand-written encoder/decoder
// pairs that preceded the field walks, so it is the proof that rewriting a
// codec moved no byte.
func TestWireGoldenBytes(t *testing.T) {
	want, err := os.ReadFile(wireGoldenPath)
	if os.IsNotExist(err) {
		if err := os.WriteFile(wireGoldenPath, renderWireGolden(t), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Fatalf("%s did not exist: wrote it from the current encoders; review and commit it", wireGoldenPath)
	}
	if err != nil {
		t.Fatal(err)
	}
	if got := renderWireGolden(t); !bytes.Equal(got, want) {
		t.Errorf("encoders no longer produce %s (wire version %d): a layout change needs a new version\n%s",
			wireGoldenPath, wireVersion, firstLineDiff(want, got))
	}

	for _, g := range goldenLines(t, want) {
		e, ok := registryEntry(g.name)
		if !ok {
			t.Errorf("golden line for %q names no registry row", g.name)
			continue
		}
		wantVal := goldenInstances(e)[g.which]
		got, err := decodeWire(e.sample, g.data)
		if err != nil {
			t.Errorf("%s %s: golden bytes do not decode: %v", g.name, g.which, err)
		} else if !reflect.DeepEqual(got, wantVal) {
			t.Errorf("%s %s: golden bytes decode to\n  %+v\nwant\n  %+v", g.name, g.which, got, wantVal)
		}
	}
}

// goldenLine is one "name|instance|hex" line of the golden file.
type goldenLine struct {
	name, which string
	data        []byte
}

func goldenLines(tb testing.TB, file []byte) []goldenLine {
	tb.Helper()
	var lines []goldenLine
	for _, line := range strings.Split(string(file), "\n") {
		parts := strings.Split(line, "|")
		if len(parts) != 3 {
			continue // header
		}
		data, err := hex.DecodeString(parts[2])
		if err != nil {
			tb.Fatalf("golden line %q: %v", line, err)
		}
		lines = append(lines, goldenLine{parts[0], parts[1], data})
	}
	return lines
}

// firstLineDiff names the first line at which two renderings part.
func firstLineDiff(want, got []byte) string {
	w, g := strings.Split(string(want), "\n"), strings.Split(string(got), "\n")
	for i := 0; i < len(w) || i < len(g); i++ {
		var a, b string
		if i < len(w) {
			a = w[i]
		}
		if i < len(g) {
			b = g[i]
		}
		if a != b {
			return fmt.Sprintf("line %d:\n  committed %s\n  current   %s", i+1, a, b)
		}
	}
	return ""
}
