package transport

import (
	"context"
	"encoding"
	"errors"
	"fmt"
)

var (
	// ErrClosed is returned by operations on a closed transport.
	ErrClosed = errors.New("transport: closed")
	// ErrUnreachable is returned when the destination cannot be contacted.
	ErrUnreachable = errors.New("transport: unreachable")
	// ErrNoHandler is returned when a message arrives before Serve.
	ErrNoHandler = errors.New("transport: no handler registered")
)

// BinaryAppender is the allocation-free flavor of encoding.BinaryMarshaler:
// implementations append their canonical binary form to buf and return the
// extended slice. Every wire body implements it, alongside
// encoding.BinaryUnmarshaler for the decode direction (docs/WIRE.md). The
// signature matches Go 1.24's encoding.BinaryAppender, declared locally so
// the module keeps its go 1.22 floor.
type BinaryAppender interface {
	AppendBinary(buf []byte) ([]byte, error)
}

// Message is the request/response envelope. Type selects the handler logic;
// Payload carries the body in its binary form.
type Message struct {
	Type    string
	Payload []byte
	// Nonce, when set, identifies the logical request across retried and
	// duplicated deliveries: receivers that deduplicate (see Faulty.Serve)
	// execute the handler at most once per nonce and replay the cached
	// response afterwards. Empty nonces are never deduplicated.
	Nonce string
	// Error carries an application-level error string in responses.
	Error string

	// Body retains the typed value the message was built from (NewMessage).
	// It never crosses the wire itself: the envelope encoder appends its
	// binary form straight into the frame, so a body is encoded exactly once.
	Body any
}

// NewMessage builds a Message of the given type around body, which must be
// nil or a BinaryAppender; it stays unencoded until a connection frames it.
func NewMessage(msgType string, body any) (Message, error) {
	if body == nil {
		return Message{Type: msgType}, nil
	}
	if _, ok := body.(BinaryAppender); !ok {
		return Message{}, fmt.Errorf("transport: %s body %T has no binary codec", msgType, body)
	}
	return Message{Type: msgType, Body: body}, nil
}

// Decode unmarshals the message payload into out through its
// encoding.BinaryUnmarshaler. An in-process delivery, which still carries
// Body and no Payload, round-trips through the body's binary form (in a
// pooled scratch buffer), so every transport observes identical semantics.
func (m Message) Decode(out any) error {
	if err := m.Err(); err != nil {
		return err
	}
	u, ok := out.(encoding.BinaryUnmarshaler)
	if !ok {
		return fmt.Errorf("transport: %T cannot decode a %s payload", out, m.Type)
	}
	if len(m.Payload) == 0 && m.Body != nil {
		a, ok := m.Body.(BinaryAppender)
		if !ok {
			return fmt.Errorf("transport: %s body %T has no binary codec", m.Type, m.Body)
		}
		buf := getBuf()
		defer putBuf(buf)
		enc, err := a.AppendBinary((*buf)[:0])
		if err != nil {
			return fmt.Errorf("transport: marshal %s payload: %w", m.Type, err)
		}
		*buf = enc
		return u.UnmarshalBinary(enc)
	}
	return u.UnmarshalBinary(m.Payload)
}

// Err returns the application-level error a response carries, or nil. It is
// the whole of decoding a reply that has no body.
func (m Message) Err() error {
	if m.Error != "" {
		return fmt.Errorf("transport: remote error: %s", m.Error)
	}
	return nil
}

// ErrorMessage builds an error response.
func ErrorMessage(err error) Message {
	return Message{Type: "error", Error: err.Error()}
}

// Handler processes one request and produces a response.
type Handler func(ctx context.Context, from string, msg Message) (Message, error)

// Transport sends requests to remote endpoints and serves incoming ones.
// Implementations are safe for concurrent use.
type Transport interface {
	// Addr returns the endpoint's address as other endpoints dial it.
	Addr() string
	// Call sends msg to addr and waits for the response.
	Call(ctx context.Context, addr string, msg Message) (Message, error)
	// Serve registers the handler for incoming requests. It must be called
	// exactly once, before the first incoming message is expected.
	Serve(h Handler)
	// Close releases resources; pending calls fail with ErrClosed.
	Close() error
}
