package netnode

import (
	"reflect"
	"testing"
)

// bodyCodecSink keeps the encoder's result alive.
var bodyCodecSink []byte

// BenchmarkBodyCodec is the ledger's body-codec layer: the encode and the
// decode of the bodies the four workloads send, called through the two
// interfaces the transport calls them through. Encode appends into a reused
// buffer, as AppendBinaryMessage does; decode reuses one destination.
func BenchmarkBodyCodec(b *testing.B) {
	entry := storeRecord{Key: 9, Value: []byte("value-0123456789"), Storage: "stanford/cs", Access: "stanford", Replica: true, Version: 77}
	entries := make([]storeRecord, 64)
	for i := range entries {
		entries[i] = entry
		entries[i].Key = uint64(i)
	}
	for _, bc := range []struct {
		name string
		body wireBody
	}{
		{"lookup", lookupReq{Key: 1 << 40, Prefix: "stanford/cs", routeHeader: routeHeader{Hops: 2}}},
		{"lookup_traced", lookupReq{Key: 1 << 40, Prefix: "stanford/cs", routeHeader: routeHeader{Hops: 3, Trace: "trace-1", Spans: binwireSpans}}},
		{"get", getReq{Key: 1 << 40, Origin: "stanford/cs", Level: 2, routeHeader: routeHeader{Hops: 1}}},
		{"put", putReq{Key: 1 << 40, Value: []byte("value-0123456789"), Storage: "stanford/cs", Access: "stanford", routeHeader: routeHeader{Hops: 1}}},
		{"store2", storeBatch{Entries: entries[:1]}},
		{"syncpull_64", syncPullResp{Entries: entries}},
	} {
		enc, err := bc.body.AppendBinary(nil)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(bc.name+"/enc", func(b *testing.B) {
			b.ReportAllocs()
			buf := make([]byte, 0, len(enc))
			for i := 0; i < b.N; i++ {
				buf, _ = bc.body.AppendBinary(buf[:0])
			}
			bodyCodecSink = buf
		})
		b.Run(bc.name+"/dec", func(b *testing.B) {
			b.ReportAllocs()
			dst := reflect.New(reflect.TypeOf(bc.body)).Interface().(wireDecoder)
			for i := 0; i < b.N; i++ {
				if err := dst.UnmarshalBinary(enc); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
