package netnode

import (
	"encoding/json"
	"testing"
	"unicode/utf8"

	"github.com/canon-dht/canon/internal/telemetry"
)

// jsonEq reports whether two values have identical JSON renderings — the
// equality that matters for wire compatibility, since JSON is the legacy wire
// format the binary codec must round-trip against (including the nil-vs-empty
// distinctions omitempty makes observable).
func jsonEq(t *testing.T, a, b any) bool {
	t.Helper()
	ja, err := json.Marshal(a)
	if err != nil {
		t.Fatalf("marshal %T: %v", a, err)
	}
	jb, err := json.Marshal(b)
	if err != nil {
		t.Fatalf("marshal %T: %v", b, err)
	}
	return string(ja) == string(jb)
}

// roundTrip encodes in through AppendBinary and decodes into out (a pointer
// to the same type), failing the test on either error.
func roundTrip(t *testing.T, in interface {
	AppendBinary([]byte) ([]byte, error)
}, out interface {
	UnmarshalBinary([]byte) error
}) {
	t.Helper()
	enc, err := in.AppendBinary(nil)
	if err != nil {
		t.Fatalf("encode %T: %v", in, err)
	}
	if err := out.UnmarshalBinary(enc); err != nil {
		t.Fatalf("decode %T: %v", out, err)
	}
}

var binwireSpans = []telemetry.Span{
	{Hop: 0, Name: "stanford/cs", ID: 42, Addr: "10.0.0.1:7001", Level: 2},
	{Hop: 1, Name: "stanford/ee", ID: 7, Addr: "10.0.0.2:7001", Level: 1, RouteAround: true},
	{Hop: 2, Name: "mit", ID: 99, Addr: "10.0.0.3:7001", Level: -1, Owner: true},
}

func TestBinWireInfoRoundTrip(t *testing.T) {
	cases := []Info{
		{},
		{ID: 1, Name: "a", Addr: "x:1"},
		{ID: ^uint64(0), Name: "stanford/cs/db", Addr: "192.0.2.1:65535"},
	}
	for _, in := range cases {
		var out Info
		roundTrip(t, in, &out)
		if !jsonEq(t, in, out) {
			t.Errorf("Info %+v round-tripped to %+v", in, out)
		}
	}
}

func TestBinWireLookupRoundTrip(t *testing.T) {
	reqs := []lookupReq{
		{},
		{Key: 123, Prefix: "stanford", Hops: 4},
		{Key: ^uint64(0), Prefix: "", Hops: 0, Trace: "t-1", Spans: binwireSpans},
		{Key: 5, Spans: []telemetry.Span{}}, // empty-but-present slice
	}
	for _, in := range reqs {
		var out lookupReq
		roundTrip(t, in, &out)
		if !jsonEq(t, in, out) {
			t.Errorf("lookupReq %+v round-tripped to %+v", in, out)
		}
	}
	resps := []lookupResp{
		{},
		{
			Pred:  Info{ID: 1, Name: "a", Addr: "x:1"},
			Succ:  Info{ID: 2, Name: "b", Addr: "y:2"},
			Hops:  7,
			Trace: "t-2",
			Spans: binwireSpans,
		},
	}
	for _, in := range resps {
		var out lookupResp
		roundTrip(t, in, &out)
		if !jsonEq(t, in, out) {
			t.Errorf("lookupResp %+v round-tripped to %+v", in, out)
		}
	}
}

func TestBinWireFetchRoundTrip(t *testing.T) {
	var fq fetchReq
	roundTrip(t, fetchReq{Key: 11, Origin: "mit/csail"}, &fq)
	if fq.Key != 11 || fq.Origin != "mit/csail" {
		t.Errorf("fetchReq round-tripped to %+v", fq)
	}
	fetches := []fetchResp{
		{},
		{Values: []fetchValue{}},
		{Values: []fetchValue{
			{Value: []byte("data"), Access: "stanford"},
			{Value: nil, Access: "", Pointer: Info{ID: 4, Name: "d", Addr: "w:4"}},
		}},
	}
	for _, in := range fetches {
		var out fetchResp
		roundTrip(t, in, &out)
		if !jsonEq(t, in, out) {
			t.Errorf("fetchResp %+v round-tripped to %+v", in, out)
		}
	}
}

// TestBinWireGeometryRoundTrip covers the v3 geometry-maintenance payloads:
// every representable value — including the nil-vs-empty slice distinction —
// must survive the binary round trip exactly as JSON preserves it.
func TestBinWireGeometryRoundTrip(t *testing.T) {
	infos := []Info{{ID: 1, Name: "a", Addr: "x:1"}, {ID: 2, Name: "b/c", Addr: "y:2"}}
	var bq bucketRefReq
	roundTrip(t, bucketRefReq{Prefix: "stanford/cs", Target: ^uint64(0)}, &bq)
	if bq.Prefix != "stanford/cs" || bq.Target != ^uint64(0) {
		t.Errorf("bucketRefReq round-tripped to %+v", bq)
	}
	for _, in := range []bucketRefResp{{}, {Contacts: []Info{}}, {Contacts: infos}} {
		var out bucketRefResp
		roundTrip(t, in, &out)
		if !jsonEq(t, in, out) {
			t.Errorf("bucketRefResp %+v round-tripped to %+v", in, out)
		}
	}
	for _, in := range []lookaheadReq{{}, {Levels: 3}} {
		var out lookaheadReq
		roundTrip(t, in, &out)
		if !jsonEq(t, in, out) {
			t.Errorf("lookaheadReq %+v round-tripped to %+v", in, out)
		}
	}
	for _, in := range []lookaheadResp{
		{},
		{Succs: []Info{}, Ests: []uint64{}},
		{Succs: infos, Ests: []uint64{2, 1 << 40, 0}},
	} {
		var out lookaheadResp
		roundTrip(t, in, &out)
		if !jsonEq(t, in, out) {
			t.Errorf("lookaheadResp %+v round-tripped to %+v", in, out)
		}
	}
}

// TestBinWireRoutedRoundTrip covers the v4 routed key-value payloads, the
// nil-vs-empty value distinction and the negative "no level answered"
// included.
func TestBinWireRoutedRoundTrip(t *testing.T) {
	ptr := Info{ID: 3, Name: "c", Addr: "z:3"}
	for _, in := range []getReq{{}, {Key: 9}, {Key: ^uint64(0), Origin: "stanford/cs", Level: 2, Hops: 5}} {
		var out getReq
		roundTrip(t, in, &out)
		if in != out {
			t.Errorf("getReq %+v round-tripped to %+v", in, out)
		}
	}
	for _, in := range []getResp{
		{},
		{Status: statusNotFound, Level: -1, Hops: 3},
		{Value: []byte("v"), Level: 2},
		{Value: []byte{}, Hops: 1}, // empty-but-present value
	} {
		var out getResp
		roundTrip(t, in, &out)
		if !jsonEq(t, in, out) || (in.Value == nil) != (out.Value == nil) {
			t.Errorf("getResp %+v round-tripped to %+v", in, out)
		}
	}
	for _, in := range []putReq{
		{},
		{Key: 9, Value: []byte("v"), Storage: "stanford/cs", Access: "stanford", Hops: 2},
		{Key: 9, Value: []byte{}},
		{Key: 9, Storage: "stanford/cs", Access: "stanford", Pointer: ptr, Hops: 7},
	} {
		var out putReq
		roundTrip(t, in, &out)
		if !jsonEq(t, in, out) || (in.Value == nil) != (out.Value == nil) {
			t.Errorf("putReq %+v round-tripped to %+v", in, out)
		}
	}
	for _, in := range []putResp{{}, {Status: statusBadDomain}, {Owner: ptr, Hops: 4}} {
		var out putResp
		roundTrip(t, in, &out)
		if in != out {
			t.Errorf("putResp %+v round-tripped to %+v", in, out)
		}
	}
}

// TestBinWireStrictDecoding pins the strictness guarantees: trailing bytes
// and truncations must error, never silently decode.
func TestBinWireStrictDecoding(t *testing.T) {
	in := lookupReq{Key: 1, Prefix: "p", Hops: 2, Trace: "t", Spans: binwireSpans}
	enc, err := in.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	var out lookupReq
	if err := out.UnmarshalBinary(append(enc, 0x00)); err == nil {
		t.Error("trailing byte decoded without error")
	}
	for i := 0; i < len(enc); i++ {
		var q lookupReq
		if err := q.UnmarshalBinary(enc[:i]); err == nil {
			t.Errorf("truncation to %d of %d bytes decoded without error", i, len(enc))
		}
	}
}

// FuzzBinWireDecode throws arbitrary bytes at every binary decoder: none may
// panic or over-allocate, whatever the input.
func FuzzBinWireDecode(f *testing.F) {
	seed := lookupReq{Key: 1, Prefix: "stanford", Hops: 3, Trace: "t", Spans: binwireSpans}
	if enc, err := seed.AppendBinary(nil); err == nil {
		f.Add(enc)
	}
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0})
	// Schema-guided corpus: one valid minimal encoding per message type per
	// wire version, synthesized from the committed schema baseline, so no
	// decoder path starts uncovered.
	for _, seed := range loadSchemaSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var i Info
		_ = i.UnmarshalBinary(data)
		var lq lookupReq
		_ = lq.UnmarshalBinary(data)
		var lp lookupResp
		_ = lp.UnmarshalBinary(data)
		var fq fetchReq
		_ = fq.UnmarshalBinary(data)
		var fp fetchResp
		_ = fp.UnmarshalBinary(data)
		var s2 storeReq2
		_ = s2.UnmarshalBinary(data)
		var tq syncTreeReq
		_ = tq.UnmarshalBinary(data)
		var tp syncTreeResp
		_ = tp.UnmarshalBinary(data)
		var kq syncKeysReq
		_ = kq.UnmarshalBinary(data)
		var kp syncKeysResp
		_ = kp.UnmarshalBinary(data)
		var pq syncPullReq
		_ = pq.UnmarshalBinary(data)
		var pp syncPullResp
		_ = pp.UnmarshalBinary(data)
		var bq bucketRefReq
		_ = bq.UnmarshalBinary(data)
		var bp bucketRefResp
		_ = bp.UnmarshalBinary(data)
		var aq lookaheadReq
		_ = aq.UnmarshalBinary(data)
		var ap lookaheadResp
		_ = ap.UnmarshalBinary(data)
		var gq getReq
		_ = gq.UnmarshalBinary(data)
		var gp getResp
		_ = gp.UnmarshalBinary(data)
		var uq putReq
		_ = uq.UnmarshalBinary(data)
		var up putResp
		_ = up.UnmarshalBinary(data)
	})
}

// binJSONAgree round-trips in through both codecs into the two zero values
// and reports whether they agree — the binary form must preserve exactly
// what the JSON wire form preserves.
func binJSONAgree(t *testing.T, in interface {
	AppendBinary([]byte) ([]byte, error)
}, binOut interface {
	UnmarshalBinary([]byte) error
}, jsonOut any) {
	t.Helper()
	roundTrip(t, in, binOut)
	raw, err := json.Marshal(in)
	if err != nil {
		t.Fatalf("json encode %T: %v", in, err)
	}
	if err := json.Unmarshal(raw, jsonOut); err != nil {
		t.Fatalf("json decode of own %T encoding: %v", in, err)
	}
	if !jsonEq(t, binOut, jsonOut) {
		t.Errorf("%T codecs disagree:\n  binary: %+v\n  json:   %+v", in, binOut, jsonOut)
	}
}

// FuzzBinWireDifferential builds a lookupReq — and the routed get/put bodies
// — from fuzzed primitives and checks the binary round trip preserves
// exactly what the JSON wire form preserves — the two codecs must agree on
// every representable value.
func FuzzBinWireDifferential(f *testing.F) {
	f.Add(uint64(1), "stanford/cs", 3, "trace-1", 2, "hop", "addr:1", -1, true)
	f.Add(uint64(0), "", 0, "", 0, "", "", 0, false)
	f.Fuzz(func(t *testing.T, key uint64, prefix string, hops int, trace string,
		nspans int, spanName, spanAddr string, spanLevel int, owner bool) {
		// JSON cannot carry invalid UTF-8 (it substitutes U+FFFD), so the
		// codecs only have to agree on strings it can represent.
		for _, s := range []string{prefix, trace, spanName, spanAddr} {
			if !utf8.ValidString(s) {
				t.Skip("not representable in JSON")
			}
		}
		in := lookupReq{Key: key, Prefix: prefix, Hops: hops, Trace: trace}
		if nspans < 0 {
			nspans = -nspans
		}
		nspans %= 8
		for j := 0; j < nspans; j++ {
			in.Spans = append(in.Spans, telemetry.Span{
				Hop: j, Name: spanName, ID: key + uint64(j), Addr: spanAddr,
				Level: spanLevel, Owner: owner,
			})
		}

		// Binary round trip.
		enc, err := in.AppendBinary(nil)
		if err != nil {
			t.Fatalf("binary encode: %v", err)
		}
		var binOut lookupReq
		if err := binOut.UnmarshalBinary(enc); err != nil {
			t.Fatalf("binary decode of own encoding: %v", err)
		}

		// JSON round trip (the legacy wire).
		raw, err := json.Marshal(in)
		if err != nil {
			t.Fatalf("json encode: %v", err)
		}
		var jsonOut lookupReq
		if err := json.Unmarshal(raw, &jsonOut); err != nil {
			t.Fatalf("json decode of own encoding: %v", err)
		}

		if !jsonEq(t, binOut, jsonOut) {
			t.Errorf("codecs disagree:\n  binary: %+v\n  json:   %+v", binOut, jsonOut)
		}

		// The routed key-value bodies, from the same primitives.
		var value []byte
		if owner {
			value = []byte(trace)
		}
		ptr := Info{ID: key, Name: spanName, Addr: spanAddr}
		binJSONAgree(t, getReq{Key: key, Origin: prefix, Level: spanLevel, Hops: hops}, &getReq{}, &getReq{})
		binJSONAgree(t, getResp{Status: nspans, Value: value, Level: spanLevel, Hops: hops}, &getResp{}, &getResp{})
		binJSONAgree(t, putReq{Key: key, Value: value, Storage: prefix, Access: trace, Pointer: ptr, Hops: hops}, &putReq{}, &putReq{})
		binJSONAgree(t, putResp{Status: nspans, Owner: ptr, Hops: hops}, &putResp{}, &putResp{})
	})
}
