package wirecompat

import "github.com/canon-dht/canon/internal/lint/testdata/wirecompat/wire"

// viaConstructor goes through the sanctioned constructor.
func viaConstructor(payload []byte) wire.Envelope {
	return wire.NewEnvelope("ping", payload, 42)
}

// explicitNonce populates both Type and Nonce, so the envelope rule is
// satisfied even without the constructor.
func explicitNonce(payload []byte) wire.Envelope {
	return wire.Envelope{Type: "ping", Payload: payload, Nonce: 7}
}

// zeroValue carries no Type: it is not a request on its way out.
func zeroValue() wire.Envelope {
	return wire.Envelope{}
}

// notEnvelope has a Type but no Nonce field; the rule keys on the pair.
type notEnvelope struct {
	Type string
	Seq  int
}

func plain() notEnvelope {
	return notEnvelope{Type: "ping", Seq: 2}
}
