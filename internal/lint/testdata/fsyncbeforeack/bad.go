// Package fsyncbeforeack is the golden fixture for the fsync-on-ack check.
// NewMessage plays transport.NewMessage, the msgStore* and msgPut constants
// play the store message types, and store.Sync plays the durability barrier:
// every ack construction with no Sync-reaching call lexically before it
// fires.
package fsyncbeforeack

const (
	msgStore   = "store"
	msgStoreV2 = "store2"
	msgPut     = "put"
	msgPing    = "ping"
)

// putReq and putResp play the routed put's bodies: the reply is an ack, the
// forwarded request under the same constant is not.
type putReq struct{ Key uint64 }
type putResp struct{ Hops int }

// Message plays transport.Message.
type Message struct{ Type string }

// NewMessage plays transport.NewMessage: the ack shape is a call to it with
// a msgStore*-named constant and a nil body.
func NewMessage(msgType string, body any) (Message, error) {
	return Message{Type: msgType}, nil
}

// store plays canonstore.Store.
type store struct{ dirty bool }

func (s *store) put(k uint64) { s.dirty = true }
func (s *store) Sync() error  { s.dirty = false; return nil }

type node struct{ st *store }

// ackWithoutSync promises durability it never established.
func (n *node) ackWithoutSync() (Message, error) {
	n.st.put(1)
	return NewMessage(msgStore, nil) // want `msgStore ack constructed without a preceding durability barrier`
}

// ackBeforeSync syncs only after building the reply: the lexical rule is
// conservative here by design — construct the ack last.
func (n *node) ackBeforeSync() (Message, error) {
	n.st.put(2)
	msg, err := NewMessage(msgStoreV2, nil) // want `msgStoreV2 ack constructed without a preceding durability barrier`
	if err != nil {
		return Message{}, err
	}
	if err := n.st.Sync(); err != nil {
		return Message{}, err
	}
	return msg, nil
}

// ackViaHelper fires too: persist writes but never reaches a barrier, so
// the summary bit stays false all the way up.
func (n *node) ackViaHelper() (Message, error) {
	n.persist(3)
	return NewMessage(msgStore, nil) // want `msgStore ack constructed without a preceding durability barrier`
}

func (n *node) persist(k uint64) { n.st.put(k) }

// putAckBeforeSync builds the routed put's reply before the barrier: the ack
// has a body, and is an ack all the same.
func (n *node) putAckBeforeSync(req putReq) (Message, error) {
	n.st.put(req.Key)
	msg, err := NewMessage(msgPut, putResp{Hops: 1}) // want `msgPut ack constructed without a preceding durability barrier`
	if err != nil {
		return Message{}, err
	}
	if err := n.st.Sync(); err != nil {
		return Message{}, err
	}
	return msg, nil
}
