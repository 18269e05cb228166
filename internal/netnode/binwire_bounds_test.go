package netnode

import (
	"encoding/binary"
	"reflect"
	"testing"
)

// appendZeroLayout appends the encoding of the zero value of a layout: what
// precedes a slice field in a body whose other fields are all zero.
func appendZeroLayout(b []byte, fields []*schemaField) []byte {
	for _, f := range fields {
		switch f.Enc {
		case "u64":
			b = append(b, make([]byte, 8)...)
		case "struct":
			b = appendZeroLayout(b, f.Elem)
		default: // varints, lengths, nil headers, bools and flags are one zero byte
			b = append(b, 0)
		}
	}
	return b
}

// TestBinWireHostileCountsBounded pins the cap in the slice primitive for
// every slice-bearing field the registry reports: a decoder must never
// reserve more than maxDecodePrealloc elements ahead of the bytes that back
// them. Each payload is the body's zero encoding up to the slice, then a
// header claiming 200k elements over 200k bytes of 0xff — enough bytes to
// pass the one-byte-per-element plausibility check, but no element decodes
// whole: a varint or a string length overflows at once, and fixed 8-byte
// words run out after an eighth of the count. So the decode must fail, and
// the slice left in the struct may only have the capacity the cap allowed
// or what the elements that really arrived grew it to — never the claimed
// count.
func TestBinWireHostileCountsBounded(t *testing.T) {
	const n = 200_001 // odd, so fixed-width elements end mid-word
	checked := 0
	for _, m := range currentSchema().Messages {
		if m.Kind == "envelope" {
			continue // its payload is bounded by the frame, not by a count
		}
		for i, f := range m.Fields {
			if hasSlice(f.Elem) {
				t.Fatalf("%s.%s nests a slice; extend this test to build its payload", m.Name, f.Name)
			}
			if f.Enc != "slice" {
				continue
			}
			payload := appendZeroLayout(nil, m.Fields[:i])
			payload = binary.AppendUvarint(payload, n+1)
			for j := 0; j < n; j++ {
				payload = append(payload, 0xff)
			}
			e, _ := registryEntry(m.Name)
			got, err := decodeWire(e.sample, payload)
			if err == nil {
				t.Errorf("%s.%s: hostile payload decoded without error", m.Name, f.Name)
			}
			field := reflect.ValueOf(got).FieldByName(f.Name)
			if limit := max(maxDecodePrealloc, 2*field.Len()); field.Cap() > limit {
				t.Errorf("%s.%s: decoder reserved capacity %d (length %d) for a claimed count of %d; the cap is %d",
					m.Name, f.Name, field.Cap(), field.Len(), n, maxDecodePrealloc)
			}
			checked++
		}
	}
	if checked < 13 {
		t.Errorf("checked %d slice-bearing fields; the wire had 13 when this test was written", checked)
	}
}

func hasSlice(fields []*schemaField) bool {
	for _, f := range fields {
		if f.Enc == "slice" || hasSlice(f.Elem) {
			return true
		}
	}
	return false
}
