package netnode

// The mutex-held reference implementations of the forwarding decision's two
// inputs. Nothing but the tests calls them: admissible_test.go pins the
// Section 2.2 rule on canonAdmissible and snapshot_internal_test.go compares
// every published routingView against both.

// candidates snapshots every known contact inside the named domain: fingers,
// per-level successors and predecessors.
//
// The forwarding hot path reads the precomputed candidate sets of the
// published routingView instead; candidates is the mutex-held reference
// implementation the snapshot equivalence suite checks buildRoutingView
// against.
func (n *Node) candidates(prefix string) []Info {
	n.mu.Lock()
	defer n.mu.Unlock()
	seen := make(map[string]bool)
	out := make([]Info, 0, len(n.fingers)+2*(n.levels+1))
	add := func(i Info) {
		if i.IsZero() || i.Addr == n.self.Addr || seen[i.Addr] {
			return
		}
		if !inDomain(i.Name, prefix) {
			return
		}
		seen[i.Addr] = true
		out = append(out, i)
	}
	for _, f := range n.fingers {
		add(f)
	}
	for l := 0; l <= n.levels; l++ {
		for _, s := range n.succs[l] {
			add(s)
		}
		add(n.preds[l])
	}
	return out
}

// canonAdmissible reports whether the Canon link-retention rule (Section 2.2)
// admits cand as a greedy routing candidate from this node, under the node's
// geometry's metric (geomAdmissible is the shared rule). FixFingers already
// builds long links under this bound; applying the same bound to
// successor-list and predecessor entries at lookup time is what makes the
// proxy-convergence theorem (Section 3.2) hold on the live path: without it
// a node could jump past its own domain's spine through a far global
// successor-list entry, and different sources would then exit a domain
// through different nodes.
func (n *Node) canonAdmissible(cand Info) bool {
	d := n.clockwise(n.self.ID, cand.ID)
	n.mu.Lock()
	defer n.mu.Unlock()
	return geomAdmissible(n.geom, n.space, n.self, n.levels, n.succs, cand, d)
}
