package netnode

import (
	"testing"

	"github.com/canon-dht/canon/internal/lint"
)

// loadSchemaSeeds loads the committed wire-schema baseline and synthesizes
// one minimal valid encoding per top-level message this package decodes —
// every optional field present, every slice carrying one element — keyed by
// wire name. The fuzz targets feed these to the corpus so every message
// type starts covered; TestSchemaSeedsDecode proves the synthesized bytes
// actually decode.
func loadSchemaSeeds(tb testing.TB) map[string][]byte {
	tb.Helper()
	s, err := lint.LoadWireSchema("../../docs/wire.schema.json")
	if err != nil {
		tb.Fatalf("load wire schema baseline: %v", err)
	}
	seeds := make(map[string][]byte)
	for _, m := range s.Messages {
		if m.Package == "internal/netnode" && m.Kind == "message" {
			seeds[m.Name] = m.Seed()
		}
	}
	return seeds
}

// TestSchemaSeedsDecode decodes every schema-synthesized seed with the real
// decoder for its message type. A failure means the extracted schema and the
// decoder disagree about the byte layout — the same symmetry canonvet's
// wiresym check guards, proven here from the other direction with concrete
// bytes. The decoder map doubles as a completeness pin: a message added to
// the codecs (or removed) without updating the baseline fails this test.
func TestSchemaSeedsDecode(t *testing.T) {
	decoders := map[string]wireDecoder{
		"Info":               &Info{},
		"lookup request":     &lookupReq{},
		"lookup response":    &lookupResp{},
		"fetch request":      &fetchReq{},
		"fetch response":     &fetchResp{},
		"neighbors request":  &neighborsReq{},
		"neighbors response": &neighborsResp{},
		"notify request":     &notifyReq{},
		"register request":   &registerReq{},
		"members request":    &membersReq{},
		"members response":   &membersResp{},
		"leaving request":    &leavingReq{},
		"store2 request":     &storeReq2{},
		"synctree request":   &syncTreeReq{},
		"synctree response":  &syncTreeResp{},
		"synckeys request":   &syncKeysReq{},
		"synckeys response":  &syncKeysResp{},
		"syncpull request":   &syncPullReq{},
		"syncpull response":  &syncPullResp{},
		"repair response":    &repairResp{},
		"bucketref request":  &bucketRefReq{},
		"bucketref response": &bucketRefResp{},
		"lookahead request":  &lookaheadReq{},
		"lookahead response": &lookaheadResp{},
		"get request":        &getReq{},
		"get response":       &getResp{},
		"put request":        &putReq{},
		"put response":       &putResp{},
	}
	seeds := loadSchemaSeeds(t)
	for name, seed := range seeds {
		dec, ok := decoders[name]
		if !ok {
			t.Errorf("schema baseline has message %q with no decoder in this test's map; update the map", name)
			continue
		}
		if err := dec.UnmarshalBinary(seed); err != nil {
			t.Errorf("schema seed for %q (% x) does not decode: %v", name, seed, err)
		}
	}
	for name := range decoders {
		if _, ok := seeds[name]; !ok {
			t.Errorf("decoder %q has no message in the schema baseline; regenerate it with canonvet -write-schema", name)
		}
	}
}
