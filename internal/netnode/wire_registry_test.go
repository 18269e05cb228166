package netnode

import (
	"reflect"

	"github.com/canon-dht/canon/internal/telemetry"
	"github.com/canon-dht/canon/internal/transport"
)

// wireVersion is the version the golden bytes and the schema belong to.
const wireVersion = transport.WireVersion

// wireEntry is one row of the body registry: a layout by the name
// docs/wire.schema.json gives it, its schema kind ("message" for a top-level
// body, "struct" for a structure bodies embed, "envelope"), and one fully
// populated value — every slice present, every optional value set. Its zero
// value is the zero of the sample's type.
type wireEntry struct {
	name   string
	kind   string
	sample any
}

var binwireSpans = []telemetry.Span{
	{Hop: 0, Name: "stanford/cs", ID: 42, Addr: "10.0.0.1:7001", Level: 2},
	{Hop: 1, Name: "stanford/ee", ID: 7, Addr: "10.0.0.2:7001", Level: 1, RouteAround: true},
	{Hop: 2, Name: "mit", ID: 99, Addr: "10.0.0.3:7001", Level: -1, Owner: true},
}

var binwireInfos = []Info{{ID: 1, Name: "a", Addr: "x:1"}, {ID: 2, Name: "b/c", Addr: "y:2"}}

// wireRegistry is the one table of everything that has a wire layout. The
// golden-bytes, round-trip, strict-decoding, hostile-count, fuzz, schema and
// WIRE.md tests all range over it, so a body missing here is a body every
// one of them skips — and the schema test fails, because the committed
// schema then has an entry the registry lacks or the reverse.
func wireRegistry() []wireEntry {
	ptr := Info{ID: 3, Name: "c", Addr: "z:3"}
	entry := storeRecord{Key: 9, Value: []byte("v"), Storage: "stanford/cs", Access: "stanford", Pointer: ptr, Replica: true, Version: 77}
	return []wireEntry{
		{"Info", "message", ptr},
		{"Span", "struct", telemetry.Span{Hop: 1, Name: "stanford/ee", ID: 7, Addr: "10.0.0.2:7001", Level: -1, RouteAround: true, Owner: true}},
		{"fetchValue", "struct", fetchValue{Value: []byte("data"), Access: "stanford", Pointer: ptr}},
		{"syncItem", "struct", syncItem{Key: 9, Storage: "s", Access: "a", Pointer: true, Version: 4, Digest: 0xd1}},
		{"store record", "struct", entry},
		{"lookup request", "message", lookupReq{Key: 1, Prefix: "p", routeHeader: routeHeader{Hops: 2, Trace: "t", Spans: binwireSpans}}},
		{"lookup response", "message", lookupResp{Pred: binwireInfos[0], Succ: binwireInfos[1], routeHeader: routeHeader{Hops: 7, Trace: "t-2", Spans: binwireSpans}}},
		{"fetch request", "message", fetchReq{Key: 11, Origin: "mit/csail"}},
		{"fetch response", "message", fetchResp{Values: []fetchValue{{Value: []byte("data"), Access: "stanford"}, {Pointer: ptr}}}},
		{"neighbors request", "message", neighborsReq{Level: 2}},
		{"neighbors response", "message", neighborsResp{Pred: ptr, Succs: binwireInfos}},
		{"notify request", "message", notifyReq{Level: 1, From: ptr, AsSuccessor: true}},
		{"register request", "message", registerReq{Prefix: "stanford/cs", From: ptr}},
		{"members request", "message", membersReq{Prefix: "stanford"}},
		{"members response", "message", membersResp{Members: binwireInfos}},
		{"leaving request", "message", leavingReq{From: ptr, Succs: binwireInfos}},
		{"store2 request", "message", storeBatch{Entries: []storeRecord{entry}}},
		{"synctree request", "message", syncTreeReq{Prefix: "stanford", Lo: 5, Hi: 500}},
		{"synctree response", "message", syncTreeResp{Root: 0xfeed, Leaves: []uint64{1, 2, ^uint64(0)}}},
		{"synckeys request", "message", syncKeysReq{Prefix: "stanford", Lo: 5, Hi: 500, Buckets: []int{0, 3, 255}}},
		{"synckeys response", "message", syncKeysResp{Items: []syncItem{{Key: 9, Storage: "s", Access: "a", Pointer: true, Version: 4, Digest: 0xd1}}}},
		{"syncpull request", "message", syncPullReq{Prefix: "stanford", Lo: 5, Hi: 500, Key: 9}},
		{"syncpull response", "message", syncPullResp{Entries: []storeRecord{entry}}},
		{"repair response", "message", repairResp{Partners: 3, Pushed: 40, Pulled: 2}},
		{"bucketref request", "message", bucketRefReq{Prefix: "stanford/cs", Target: ^uint64(0)}},
		{"bucketref response", "message", bucketRefResp{Contacts: binwireInfos}},
		{"lookahead request", "message", lookaheadReq{Levels: 3}},
		{"lookahead response", "message", lookaheadResp{Succs: binwireInfos, Ests: []uint64{2, 1 << 40, 0}}},
		{"get request", "message", getReq{Key: ^uint64(0), Origin: "stanford/cs", Level: 2, routeHeader: routeHeader{Hops: 5, Trace: "t", Spans: binwireSpans}}},
		{"get response", "message", getResp{Status: statusNotFound, Value: []byte("v"), Level: -1, routeHeader: routeHeader{Hops: 3, Trace: "t", Spans: binwireSpans}}},
		{"put request", "message", putReq{Key: 9, Value: []byte("v"), Storage: "stanford/cs", Access: "stanford", Pointer: ptr, routeHeader: routeHeader{Hops: 7, Trace: "t", Spans: binwireSpans}}},
		{"put response", "message", putResp{Status: statusBadDomain, Owner: ptr, routeHeader: routeHeader{Hops: 4, Trace: "t", Spans: binwireSpans}}},
		{"envelope", "envelope", transport.Message{Type: "lookup", Nonce: "n-1", Error: "boom", Payload: []byte{0, 1, 0xff}}},
	}
}

// registryEntry returns the registry row of a wire name.
func registryEntry(name string) (wireEntry, bool) {
	for _, e := range wireRegistry() {
		if e.name == name {
			return e, true
		}
	}
	return wireEntry{}, false
}

// wireBody is what every wire body is on the encode side; a pointer to the
// same type is a wireDecoder.
type wireBody interface {
	AppendBinary([]byte) ([]byte, error)
}

type wireDecoder interface {
	UnmarshalBinary([]byte) error
}

// wireWalker is the field walk behind both; the embedded structures have
// only the walk.
type wireWalker interface{ wire(*coder) }

type spanWalker struct{ s *telemetry.Span }

func (w spanWalker) wire(c *coder) { wireSpan(c, w.s) }

// walkerOf returns the field walk of the value p points to.
func walkerOf(p any) wireWalker {
	if s, ok := p.(*telemetry.Span); ok {
		return spanWalker{s}
	}
	return p.(wireWalker)
}

// newOf returns a pointer to a zero value of v's type.
func newOf(v any) any { return reflect.New(reflect.TypeOf(v)).Interface() }

// encodeWire encodes a registry value the way the wire does: the envelope
// and the bodies through their exported codecs, embedded structures through
// their walk.
func encodeWire(v any) ([]byte, error) {
	switch v := v.(type) {
	case transport.Message:
		return transport.AppendBinaryMessage(nil, v)
	case wireBody:
		return v.AppendBinary(nil)
	}
	p := reflect.New(reflect.TypeOf(v))
	p.Elem().Set(reflect.ValueOf(v))
	c := encoder(nil)
	walkerOf(p.Interface()).wire(&c)
	return c.b, nil
}

// decodeWire decodes data into a fresh value of like's type and returns it
// by value.
func decodeWire(like any, data []byte) (any, error) {
	if _, ok := like.(transport.Message); ok {
		return transport.DecodeBinaryMessage(data)
	}
	p := newOf(like)
	var err error
	if d, ok := p.(wireDecoder); ok {
		err = d.UnmarshalBinary(data)
	} else {
		c := decoder(data)
		walkerOf(p).wire(&c)
		err = c.r.done()
	}
	return reflect.ValueOf(p).Elem().Interface(), err
}

// describeWire runs like's walk in describe mode and returns the layout rows
// it states.
func describeWire(like any) []transport.WireField {
	if _, ok := like.(transport.Message); ok {
		return transport.EnvelopeLayout
	}
	c := coder{mode: coderDescribe}
	walkerOf(newOf(like)).wire(&c)
	return c.rows
}
