// Package lockorder is the golden fixture for the lockorder check: every
// want line below must fire, and clean.go must stay silent. The check
// reports each edge of a cycle, so both directions carry a want.
package lockorder

import "sync"

// A and B are two named lock classes.
type A struct{ mu sync.Mutex }

type B struct{ mu sync.Mutex }

// abPath acquires A then B: one direction of the cycle.
func abPath(a *A, b *B) {
	a.mu.Lock()
	defer a.mu.Unlock()
	b.mu.Lock() // want `lock-order cycle: B\.mu is locked with A\.mu held.*deadlock`
	b.mu.Unlock()
}

// baPath acquires B then A: the reverse direction, closing the cycle.
func baPath(a *A, b *B) {
	b.mu.Lock()
	defer b.mu.Unlock()
	a.mu.Lock() // want `lock-order cycle: A\.mu is locked with B\.mu held`
	a.mu.Unlock()
}

// node and tracker are the inversion that used to need a call graph: each
// side holds its own mutex and calls a method of the other that locks the
// other's, one call deep.
type node struct {
	mu      sync.RWMutex
	tracker *tracker
}

type tracker struct {
	mu    sync.Mutex
	owner *node
}

// Demote locks node.mu, then reaches tracker.mu through a method.
func (n *node) Demote() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.tracker.markDead() // want `lock-order cycle: tracker\.mu is locked with node\.mu held`
}

func (t *tracker) markDead() {
	t.mu.Lock()
	defer t.mu.Unlock()
}

// Report locks tracker.mu, then calls back into the owning node.
func (t *tracker) Report() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.owner.refresh() // want `lock-order cycle: node\.mu is locked with tracker\.mu held`
}

func (n *node) refresh() {
	n.mu.RLock()
	defer n.mu.RUnlock()
}
