package transport

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// errFrameTooLarge rejects an envelope beyond maxFrameBytes, on either side
// of a connection.
var errFrameTooLarge = errors.New("transport: frame too large")

// muxReply is one response delivered to a waiting caller.
type muxReply struct {
	msg Message
	err error
}

// muxConn is one persistent multiplexed connection to a peer. Many calls are
// in flight concurrently: each is tagged with a uint64 request ID, frame
// writes are serialized by wmu, and a single reader goroutine dispatches
// response frames to the pending map.
type muxConn struct {
	t    *TCP
	addr string
	c    net.Conn

	wmu sync.Mutex // serializes frame writes; never held together with pmu
	wq  atomic.Int32
	bw  *bufio.Writer

	pmu     sync.Mutex
	pending map[uint64]chan muxReply
	nextID  uint64
	closed  bool
	errv    error

	br *bufio.Reader // owned by readLoop after the handshake
}

// dialMux establishes a mux connection to addr: dial, 4-byte hello, 4-byte
// accept. The acceptor answers with its own version; anything but this
// build's is a refusal, reported with both numbers.
func (t *TCP) dialMux(ctx context.Context, addr string) (*muxConn, error) {
	d := net.Dialer{Timeout: defaultDialTimeout}
	c, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("%w: dial %s: %v", ErrUnreachable, addr, err)
	}
	deadline := time.Now().Add(defaultDialTimeout)
	if ctxDeadline, ok := ctx.Deadline(); ok && ctxDeadline.Before(deadline) {
		deadline = ctxDeadline
	}
	_ = c.SetDeadline(deadline)
	hello := [4]byte{muxMagic0, muxMagic1, muxMagic2, muxVersion}
	if _, err := c.Write(hello[:]); err != nil {
		_ = c.Close()
		return nil, fmt.Errorf("%w: handshake write to %s: %v", ErrUnreachable, addr, err)
	}
	br := bufio.NewReader(c)
	var accept [4]byte
	if _, err := io.ReadFull(br, accept[:]); err != nil {
		_ = c.Close()
		return nil, fmt.Errorf("%w: handshake read from %s: %v", ErrUnreachable, addr, err)
	}
	if accept[0] != muxMagic0 || accept[1] != muxMagic1 || accept[2] != muxMagic2 {
		_ = c.Close()
		return nil, fmt.Errorf("%w: %s did not answer the mux hello", ErrUnreachable, addr)
	}
	if accept[3] != muxVersion {
		_ = c.Close()
		return nil, fmt.Errorf("%w: %s speaks wire version %d, this node speaks %d",
			ErrUnreachable, addr, accept[3], muxVersion)
	}
	_ = c.SetDeadline(time.Time{})
	mc := &muxConn{
		t:       t,
		addr:    addr,
		c:       c,
		bw:      bufio.NewWriter(c),
		pending: make(map[uint64]chan muxReply),
		br:      br,
	}
	t.wg.Add(1)
	go mc.readLoop()
	return mc, nil
}

// roundTrip sends one request over the shared connection and waits for its
// tagged response or context expiry. It is safe for arbitrary concurrency.
func (mc *muxConn) roundTrip(ctx context.Context, msg Message) (Message, error) {
	ch := make(chan muxReply, 1)
	mc.pmu.Lock()
	if mc.closed {
		err := mc.errv
		mc.pmu.Unlock()
		if err == nil {
			err = ErrClosed
		}
		return Message{}, fmt.Errorf("%w: %s: %v", ErrUnreachable, mc.addr, err)
	}
	mc.nextID++
	id := mc.nextID
	mc.pending[id] = ch
	mc.pmu.Unlock()

	mc.t.metrics.inflight.Add(1)
	defer mc.t.metrics.inflight.Add(-1)

	if err := mc.writeFrame(ctx, frameRequest, id, msg); err != nil {
		mc.unregister(id)
		mc.fail(err)
		return Message{}, fmt.Errorf("%w: write to %s: %v", ErrUnreachable, mc.addr, err)
	}
	select {
	case r := <-ch:
		if r.err != nil {
			return Message{}, fmt.Errorf("%w: %s: %v", ErrUnreachable, mc.addr, r.err)
		}
		return r.msg, nil
	case <-ctx.Done():
		mc.unregister(id)
		return Message{}, ctx.Err()
	}
}

// writeFrame encodes and writes one frame under the write lock. The encode
// buffer is pooled, so the steady-state send path performs no allocations
// beyond what the body encoder needs.
//
// Flushes coalesce across concurrent senders: each writer announces itself
// on the queued-writer counter before taking the lock and only the writer
// that drains the counter to zero flushes — so a batch of lookups headed to
// the same next hop leaves in one syscall instead of one per request. See
// flushCoalesced for why no written byte can be left behind unflushed.
func (mc *muxConn) writeFrame(ctx context.Context, kind byte, id uint64, msg Message) error {
	buf := getBuf()
	defer putBuf(buf)
	env, err := AppendBinaryMessage(*buf, msg)
	if err != nil {
		return err
	}
	*buf = env
	if len(env) > maxFrameBytes {
		return errFrameTooLarge
	}
	var hdr [1 + 8 + binary.MaxVarintLen64]byte
	hdr[0] = kind
	binary.BigEndian.PutUint64(hdr[1:9], id)
	n := 9 + binary.PutUvarint(hdr[9:], uint64(len(env)))

	deadline := time.Now().Add(defaultDialTimeout)
	if ctxDeadline, ok := ctx.Deadline(); ok && ctxDeadline.Before(deadline) {
		deadline = ctxDeadline
	}
	mc.wq.Add(1)
	mc.wmu.Lock()
	defer mc.wmu.Unlock()
	_ = mc.c.SetWriteDeadline(deadline)
	werr := writeTwo(mc.bw, hdr[:n], env)
	if err := flushCoalesced(mc.bw, &mc.wq, werr); err != nil {
		return err
	}
	mc.t.metrics.framesSent.Inc()
	return nil
}

// writeTwo writes a frame header and its envelope into the buffered writer.
func writeTwo(bw *bufio.Writer, hdr, env []byte) error {
	if _, err := bw.Write(hdr); err != nil {
		return err
	}
	_, err := bw.Write(env)
	return err
}

// flushCoalesced completes one writer's turn under the connection write
// lock: it retires the writer from the queued counter and flushes only when
// no other writer is queued behind it. Correctness of the skipped flush:
// every writer increments wq strictly before contending for the write lock
// and decrements it while holding the lock, so a writer that observes a
// non-zero residue is guaranteed a successor that will hold the lock after
// it — and that successor either flushes (carrying this writer's buffered
// bytes with its own) or fails the connection, failing every pending call
// with it. werr is the write error to propagate; the counter is retired on
// that path too so an aborted writer never strands a peer's flush.
func flushCoalesced(bw *bufio.Writer, wq *atomic.Int32, werr error) error {
	last := wq.Add(-1) == 0
	if werr != nil {
		return werr
	}
	if !last {
		return nil
	}
	return bw.Flush()
}

// readLoop is the single reader: it parses response frames and hands each to
// the caller registered under its request ID. Any read error fails the whole
// connection (and every pending call), and the loop exits.
func (mc *muxConn) readLoop() {
	defer mc.t.wg.Done()
	scratch := getBuf()
	defer putBuf(scratch)
	for {
		kind, id, env, err := readMuxFrame(mc.br, scratch)
		if err != nil {
			mc.fail(err)
			return
		}
		if kind != frameResponse {
			mc.fail(fmt.Errorf("transport: unexpected frame kind 0x%02x on client connection", kind))
			return
		}
		mc.t.metrics.framesRecv.Inc()
		msg, derr := DecodeBinaryMessage(env)
		mc.pmu.Lock()
		ch := mc.pending[id]
		delete(mc.pending, id)
		mc.pmu.Unlock()
		if ch == nil {
			continue // caller gave up (context expiry); drop the late response
		}
		ch <- muxReply{msg: msg, err: derr}
	}
}

// unregister drops a pending request ID (caller gave up or failed to write).
func (mc *muxConn) unregister(id uint64) {
	mc.pmu.Lock()
	delete(mc.pending, id)
	mc.pmu.Unlock()
}

// fail closes the connection, fails every pending call and removes the
// connection from its peer's pool so the next call redials.
func (mc *muxConn) fail(err error) {
	mc.pmu.Lock()
	if mc.closed {
		mc.pmu.Unlock()
		return
	}
	mc.closed = true
	mc.errv = err
	pend := mc.pending
	mc.pending = make(map[uint64]chan muxReply)
	mc.pmu.Unlock()
	_ = mc.c.Close()
	for _, ch := range pend {
		ch <- muxReply{err: err}
	}
	mc.t.dropMuxConn(mc.addr, mc)
}

// readMuxFrame reads one mux frame — kind byte, 8-byte big-endian request
// ID, uvarint envelope length, envelope bytes — into *scratch (grown as
// needed and reused across frames; DecodeBinaryMessage copies what outlives
// the call).
func readMuxFrame(br *bufio.Reader, scratch *[]byte) (kind byte, id uint64, env []byte, err error) {
	kind, err = br.ReadByte()
	if err != nil {
		return 0, 0, nil, err
	}
	var idb [8]byte
	if _, err = io.ReadFull(br, idb[:]); err != nil {
		return 0, 0, nil, err
	}
	id = binary.BigEndian.Uint64(idb[:])
	n, err := binary.ReadUvarint(br)
	if err != nil {
		return 0, 0, nil, err
	}
	if n > maxFrameBytes {
		return 0, 0, nil, errFrameTooLarge
	}
	if uint64(cap(*scratch)) < n {
		*scratch = make([]byte, n)
	}
	*scratch = (*scratch)[:n]
	if _, err = io.ReadFull(br, *scratch); err != nil {
		return 0, 0, nil, err
	}
	return kind, id, *scratch, nil
}

// acceptMux completes the acceptor's half of the handshake: it reads the
// 4-byte hello and, when that is a mux hello, answers with this build's
// version. It reports whether the connection may carry frames — the dialer
// offered the same version — and otherwise leaves the caller to close it.
func (t *TCP) acceptMux(c net.Conn, br *bufio.Reader) bool {
	var hello [4]byte
	if _, err := io.ReadFull(br, hello[:]); err != nil {
		return false
	}
	if hello[0] != muxMagic0 || hello[1] != muxMagic1 || hello[2] != muxMagic2 {
		return false
	}
	accept := [4]byte{muxMagic0, muxMagic1, muxMagic2, muxVersion}
	if _, err := c.Write(accept[:]); err != nil {
		return false
	}
	return hello[3] == muxVersion
}

// serveMux serves one accepted mux connection after the handshake: it reads
// request frames and hands each to a serve worker (see dispatch) so many
// requests from the same peer proceed concurrently while the reader goes
// straight back to the socket. Responses are written back under a
// per-connection write lock, tagged with the request's ID.
func (t *TCP) serveMux(c net.Conn, br *bufio.Reader) {
	// Responses share one write lock and one queued-writer counter: like the
	// client side, concurrent responses to the same peer coalesce into one
	// flush (see flushCoalesced).
	w := &muxServerWriter{c: c, from: c.RemoteAddr().String(), bw: bufio.NewWriter(c)}
	scratch := getBuf()
	defer putBuf(scratch)
	for {
		kind, id, env, err := readMuxFrame(br, scratch)
		if err != nil {
			return
		}
		if kind != frameRequest {
			return
		}
		t.metrics.framesRecv.Inc()
		msg, derr := DecodeBinaryMessage(env)
		if derr != nil {
			t.wg.Add(1)
			go func() {
				defer t.wg.Done()
				t.writeMuxResponse(w, id, ErrorMessage(derr))
			}()
			continue
		}
		t.dispatch(serveJob{w: w, id: id, msg: msg})
	}
}

// maxServeWorkers caps the long-lived serve workers of one TCP. A worker
// keeps the stack its handlers grew, so a request it serves pays no stack
// copy; the cap bounds the memory idle workers hold between bursts. Past it
// a request runs on a one-off goroutine, as every request once did: a
// handler may wait on a call that loops back to this node, so the reader
// must never wait for a worker to come free.
const maxServeWorkers = 64

// serveJob is one decoded request on its way to a serve worker.
type serveJob struct {
	w   *muxServerWriter
	id  uint64
	msg Message
}

// dispatch hands job to an idle serve worker, or starts a worker for it, or
// past maxServeWorkers runs it on a one-off goroutine. It never blocks.
func (t *TCP) dispatch(job serveJob) {
	select {
	case t.serveJobs <- job:
		return
	default:
	}
	t.wg.Add(1)
	if t.serveWorkers.Add(1) <= maxServeWorkers {
		go t.serveWorker(job)
		return
	}
	t.serveWorkers.Add(-1)
	go func() {
		defer t.wg.Done()
		t.serveMuxRequest(job)
	}()
}

// serveWorker serves its first job, then every job handed to it while it
// waits idle, until Close stops it.
func (t *TCP) serveWorker(job serveJob) {
	defer t.wg.Done()
	for {
		t.serveMuxRequest(job)
		select {
		case job = <-t.serveJobs:
		case <-t.stopWorkers:
			return
		}
	}
}

// muxServerWriter is the shared write side of one accepted mux connection:
// the buffered writer, its lock, and the queued-writer counter that lets
// concurrent responses coalesce their flushes. from is the peer's address as
// handlers see it, formatted once per connection.
type muxServerWriter struct {
	c    net.Conn
	from string
	wmu  sync.Mutex
	wq   atomic.Int32
	bw   *bufio.Writer
}

// serveMuxRequest runs the handler for one multiplexed request and writes
// its tagged response.
func (t *TCP) serveMuxRequest(job serveJob) {
	t.mu.Lock()
	h := t.handler
	t.mu.Unlock()
	var resp Message
	if h == nil {
		resp = ErrorMessage(ErrNoHandler)
	} else {
		r, herr := h(context.Background(), job.w.from, job.msg)
		if herr != nil {
			resp = ErrorMessage(herr)
		} else {
			resp = r
		}
	}
	t.writeMuxResponse(job.w, job.id, resp)
}

// writeMuxResponse frames and writes one response under the connection's
// write lock, coalescing its flush with concurrently queued responses.
func (t *TCP) writeMuxResponse(w *muxServerWriter, id uint64, resp Message) {
	buf := getBuf()
	defer putBuf(buf)
	env, err := AppendBinaryMessage(*buf, resp)
	if err == nil && len(env) > maxFrameBytes {
		err = errors.New("transport: response too large")
	}
	if err != nil {
		// The response cannot be sent as it is; an error envelope under the
		// same request ID unblocks the caller rather than leaving it to wait
		// out its deadline.
		env, err = AppendBinaryMessage(*buf, ErrorMessage(err))
		if err != nil {
			return
		}
	}
	*buf = env
	var hdr [1 + 8 + binary.MaxVarintLen64]byte
	hdr[0] = frameResponse
	binary.BigEndian.PutUint64(hdr[1:9], id)
	n := 9 + binary.PutUvarint(hdr[9:], uint64(len(env)))

	w.wq.Add(1)
	w.wmu.Lock()
	defer w.wmu.Unlock()
	_ = w.c.SetWriteDeadline(time.Now().Add(defaultDialTimeout))
	werr := writeTwo(w.bw, hdr[:n], env)
	if flushCoalesced(w.bw, &w.wq, werr) != nil {
		return
	}
	t.metrics.framesSent.Inc()
}
