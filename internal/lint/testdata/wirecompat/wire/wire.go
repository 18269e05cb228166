// Package wire defines the fixture's envelope in its own package, the way
// transport.Message lives apart from its callers: the wirecompat rule only
// applies outside the defining package, where hand-rolled literals bypass
// the constructor and the nonce-tagging helpers.
package wire

// Envelope mirrors transport.Message: Type routes the request, Nonce is the
// at-most-once dedup token receivers key on.
type Envelope struct {
	Type    string
	Payload []byte
	Nonce   uint64
}

// NewEnvelope is the sanctioned constructor; it always stamps a nonce.
func NewEnvelope(msgType string, payload []byte, nonce uint64) Envelope {
	return Envelope{Type: msgType, Payload: payload, Nonce: nonce}
}
