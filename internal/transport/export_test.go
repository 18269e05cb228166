package transport

// MaxServeWorkers exposes the serve-worker cap to the external tests.
const MaxServeWorkers = maxServeWorkers

// ServeWorkers reports how many serve workers t has started.
func ServeWorkers(t *TCP) int { return int(t.serveWorkers.Load()) }
