package transport_test

import (
	"context"
	"encoding/binary"
	"runtime"
	"testing"

	"github.com/canon-dht/canon/internal/transport"
)

// benchBody mirrors the shape of the hot netnode payloads (lookup responses:
// two node identities plus routing metadata) without importing netnode.
type benchBody struct {
	PredID   uint64
	PredName string
	PredAddr string
	SuccID   uint64
	SuccName string
	SuccAddr string
	Hops     int
}

func (b benchBody) AppendBinary(buf []byte) ([]byte, error) {
	var x [8]byte
	app := func(v uint64) {
		binary.BigEndian.PutUint64(x[:], v)
		buf = append(buf, x[:]...)
	}
	str := func(s string) {
		buf = binary.AppendUvarint(buf, uint64(len(s)))
		buf = append(buf, s...)
	}
	app(b.PredID)
	str(b.PredName)
	str(b.PredAddr)
	app(b.SuccID)
	str(b.SuccName)
	str(b.SuccAddr)
	buf = binary.AppendVarint(buf, int64(b.Hops))
	return buf, nil
}

func (b *benchBody) UnmarshalBinary(data []byte) error {
	u64 := func() uint64 {
		v := binary.BigEndian.Uint64(data)
		data = data[8:]
		return v
	}
	str := func() string {
		n, sz := binary.Uvarint(data)
		s := string(data[sz : sz+int(n)])
		data = data[sz+int(n):]
		return s
	}
	b.PredID = u64()
	b.PredName = str()
	b.PredAddr = str()
	b.SuccID = u64()
	b.SuccName = str()
	b.SuccAddr = str()
	hops, _ := binary.Varint(data)
	b.Hops = int(hops)
	return nil
}

var benchMsgBody = benchBody{
	PredID: 0xDEADBEEFCAFEF00D, PredName: "stanford/cs/db", PredAddr: "10.1.2.3:7001",
	SuccID: 0x0123456789ABCDEF, SuccName: "stanford/cs/graphics", SuccAddr: "10.1.2.4:7001",
	Hops: 5,
}

// BenchmarkEnvelopeEncodeBinary measures the envelope encoding of a typical
// lookup-response message into a reused buffer — the steady-state mux send
// path.
func BenchmarkEnvelopeEncodeBinary(b *testing.B) {
	msg, err := transport.NewMessage("lookup", benchMsgBody)
	if err != nil {
		b.Fatal(err)
	}
	msg.Nonce = "bench-nonce-0001"
	buf := make([]byte, 0, 512)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		enc, err := transport.AppendBinaryMessage(buf[:0], msg)
		if err != nil {
			b.Fatal(err)
		}
		buf = enc[:0]
	}
}

// BenchmarkEnvelopeDecodeBinary measures binary decode: envelope parse, then
// the payload's UnmarshalBinary.
func BenchmarkEnvelopeDecodeBinary(b *testing.B) {
	msg, err := transport.NewMessage("lookup", benchMsgBody)
	if err != nil {
		b.Fatal(err)
	}
	msg.Nonce = "bench-nonce-0001"
	enc, err := transport.AppendBinaryMessage(nil, msg)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := transport.DecodeBinaryMessage(enc)
		if err != nil {
			b.Fatal(err)
		}
		var body benchBody
		if err := m.Decode(&body); err != nil {
			b.Fatal(err)
		}
	}
}

// deepStack recurses depth frames of over 512 bytes each. A handler that
// calls it with depth 16 needs an 8 KiB stack, as netnode's serve chain
// (dedup, handle, the routed forward, the next hop's call) does: a goroutine
// starting on 2 KiB copies its stack three times to get there.
//
//go:noinline
func deepStack(depth int) byte {
	var pad [512]byte
	pad[depth%len(pad)] = byte(depth)
	if depth == 0 {
		return pad[0]
	}
	return deepStack(depth-1) + pad[depth%len(pad)]
}

// benchRoundTrips drives concurrent same-peer RPCs at one server: with 64
// callers, 64-deep multiplexing on 2 persistent connections. The handler
// recurses depth frames of deepStack before it answers.
func benchRoundTrips(b *testing.B, callers, depth int) {
	srv, err := transport.ListenTCP("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	srv.Serve(func(_ context.Context, _ string, msg transport.Message) (transport.Message, error) {
		if depth > 0 {
			deepStack(depth)
		}
		return transport.NewMessage("lookup-reply", benchMsgBody)
	})

	cli, err := transport.ListenTCP("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer cli.Close()

	// Warm the connection path.
	warm, _ := transport.NewMessage("lookup", benchMsgBody)
	if _, err := cli.Call(context.Background(), srv.Addr(), warm); err != nil {
		b.Fatal(err)
	}

	par := callers / runtime.GOMAXPROCS(0)
	if par < 1 {
		par = 1
	}
	b.SetParallelism(par)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		ctx := context.Background()
		for pb.Next() {
			msg, _ := transport.NewMessage("lookup", benchMsgBody)
			resp, err := cli.Call(ctx, srv.Addr(), msg)
			if err != nil {
				b.Error(err)
				return
			}
			var body benchBody
			if err := resp.Decode(&body); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

func BenchmarkRoundTrip64Binary(b *testing.B) { benchRoundTrips(b, 64, 0) }
func BenchmarkRoundTrip1Binary(b *testing.B)  { benchRoundTrips(b, 1, 0) }

// BenchmarkRoundTrip64DeepBinary is BenchmarkRoundTrip64Binary with a
// handler whose stack outgrows a new goroutine's, so it sees what the serve
// side pays per request to grow one.
func BenchmarkRoundTrip64DeepBinary(b *testing.B) { benchRoundTrips(b, 64, 16) }
