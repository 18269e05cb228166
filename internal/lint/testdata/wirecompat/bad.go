// Package wirecompat is a canonvet fixture: hand-rolled envelopes that
// populate Type but not Nonce must be flagged.
package wirecompat

import "github.com/canon-dht/canon/internal/lint/testdata/wirecompat/wire"

// handRolled builds an envelope by hand with no nonce, so receivers cannot
// deduplicate a retried delivery.
func handRolled(payload []byte) wire.Envelope {
	return wire.Envelope{Type: "ping", Payload: payload} // want `Envelope envelope built with Type but no Nonce`
}

// suppressed proves the pragma escape hatch for deliberate raw envelopes
// (the netnode dispatcher fuzzer does exactly this).
func suppressed(payload []byte) wire.Envelope {
	//canonvet:ignore wirecompat -- fixture: prove the pragma suppresses the line below
	return wire.Envelope{Type: "ping", Payload: payload}
}
