package lockorder

import "sync"

// Consistent order everywhere: E before F. No cycle, no finding.
type E struct{ mu sync.Mutex }

type F struct{ mu sync.Mutex }

func efOne(e *E, f *F) {
	e.mu.Lock()
	defer e.mu.Unlock()
	f.mu.Lock()
	f.mu.Unlock()
}

func efTwo(e *E, f *F) {
	e.mu.Lock()
	f.mu.Lock()
	f.mu.Unlock()
	e.mu.Unlock()
}

// Self-class nesting (two instances of the same type, e.g. a handoff) is
// deliberately not reported: a class-level analysis cannot tell instances
// apart, and ordering by ID — the usual fix — looks identical to it.
func handoff(x, y *E) {
	x.mu.Lock()
	y.mu.Lock()
	y.mu.Unlock()
	x.mu.Unlock()
}

// Local mutexes are not named classes; nesting them both ways stays silent.
func locals() {
	var p, q sync.Mutex
	p.Lock()
	q.Lock()
	q.Unlock()
	p.Unlock()
	q.Lock()
	p.Lock()
	p.Unlock()
	q.Unlock()
}

// Sequential (released-before-next) acquisition is not nesting.
func sequential(e *E, f *F) {
	f.mu.Lock()
	f.mu.Unlock()
	e.mu.Lock()
	e.mu.Unlock()
}

// A goroutine spawned and a call deferred while F is held do not run under
// F there, so neither is an F-then-E edge closing a cycle with efOne.
func spawnAndDefer(e *E, f *F) {
	f.mu.Lock()
	defer lockE(e)
	go lockE(e)
	f.mu.Unlock()
}

func lockE(e *E) {
	e.mu.Lock()
	e.mu.Unlock()
}
