package fsyncbeforeack

// ackAfterSync is the contract done right: barrier, then ack.
func (n *node) ackAfterSync() (Message, error) {
	n.st.put(10)
	if err := n.st.Sync(); err != nil {
		return Message{}, err
	}
	return NewMessage(msgStore, nil)
}

// ackAfterHelperSync reaches the barrier through a helper: the ReachesSync
// summary propagates over call edges, so flushAll counts.
func (n *node) ackAfterHelperSync() (Message, error) {
	n.st.put(11)
	if err := n.flushAll(); err != nil {
		return Message{}, err
	}
	return NewMessage(msgStoreV2, nil)
}

func (n *node) flushAll() error { return n.st.Sync() }

// ackAfterDeferredSync relies on a deferred barrier: handler defers run
// before the reply goes to the wire, so this is durable too.
func (n *node) ackAfterDeferredSync() (Message, error) {
	defer n.st.Sync()
	n.st.put(12)
	return NewMessage(msgStore, nil)
}

// pingReply is not a store ack: no durability promise, no barrier needed.
func (n *node) pingReply() (Message, error) {
	return NewMessage(msgPing, nil)
}

// storeRequest carries a body, so it is a request, not an ack.
func (n *node) storeRequest() (Message, error) {
	return NewMessage(msgStore, struct{ K uint64 }{13})
}

// putAckAfterApply is the routed put done right: apply reaches the barrier
// before the reply is built.
func (n *node) putAckAfterApply(req putReq) (Message, error) {
	if err := n.apply(req); err != nil {
		return Message{}, err
	}
	return NewMessage(msgPut, putResp{})
}

func (n *node) apply(req putReq) error {
	n.st.put(req.Key)
	return n.st.Sync()
}

// putForward carries the request a hop further: same constant, a request
// body — no durability promise.
func (n *node) putForward(req putReq) (Message, error) {
	return NewMessage(msgPut, req)
}
