package lint

// checkFsyncBeforeAck enforces the fsync-on-ack contract of docs/STORAGE.md:
// a store handler's reply — the empty transport.NewMessage(msgStore*, nil),
// or the routed put's NewMessage(msgPut*, <...Resp>) — is a durability
// promise, so every such construction must be preceded, in the
// same function, by a call that reaches a durability barrier (a Sync/Flush-
// shaped primitive such as canonstore.Store.Sync) through the call graph.
// The barrier may sit behind helpers — the reachability bit is the
// ReachesSync summary computed to a fixpoint — but the ordering test is
// deliberately lexical: the barrier call must appear textually before the
// ack construction. That is conservative (a barrier issued after building
// the reply value but before returning it would be durable yet still
// reported), and the conservative fix — construct the ack last — is also
// the readable one, so the check does not chase that precision.
var checkFsyncBeforeAck = Check{
	Name:      "fsyncbeforeack",
	Doc:       "store acks (NewMessage(msgStore*, nil), NewMessage(msgPut*, ...Resp)) constructed with no preceding Sync/Flush-reaching call (lost-write class)",
	RunModule: runFsyncBeforeAck,
}

func runFsyncBeforeAck(mp *ModulePass) {
	isSync := func(n *FuncNode) bool { return n.IsSyncPrim }
	for _, n := range mp.Graph.SortedNodes() {
		for _, ack := range n.AckSites {
			satisfied := false
			for _, e := range n.Out {
				// Deferred barriers count: a handler's defers run before its
				// reply is written to the wire.
				if e.Kind != EdgeCall && e.Kind != EdgeDefer {
					continue
				}
				if e.Pos >= ack.Pos {
					continue
				}
				if e.Callee.IsSyncPrim || e.Callee.Sum.ReachesSync {
					satisfied = true
					break
				}
			}
			if satisfied {
				continue
			}
			chain := []string{mp.Graph.frame(n, ack.Pos)}
			if tail := mp.Graph.Chain(n, summaryKinds, isSync); tail != nil {
				// A barrier is reachable but only after the ack: show it.
				chain = append(chain, tail[1:]...)
			}
			mp.Report(ack.Pos, chain,
				"%s ack constructed without a preceding durability barrier: no Sync/Flush-reaching call before it in %s; fsync before acknowledging a store",
				ack.Msg, n.Name)
		}
	}
}
