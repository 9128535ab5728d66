package miniredis

// Multiplexed connections: many goroutines share one socket. Callers submit
// framed pipelines to a single writer goroutine that coalesces flushes
// across callers (one syscall carries many requests), and a single reader
// goroutine matches replies to callers in arrival order — RESP has no
// request IDs, so FIFO matching over one socket is the protocol's only
// ordering contract. A connection that dies mid-stream is poisoned: every
// caller with bytes on the wire gets an error marked "written" (the server
// may have executed it), everyone still queued gets a clean "never written"
// failure, and the pool lazily redials the slot on next use.

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"

	"edsc/internal/resp"
)

const (
	// muxBufSize sizes the per-connection read/write buffers. Large buffers
	// let one syscall drain many pipelined replies.
	muxBufSize = 64 << 10
	// muxInflightCap bounds requests written-but-unanswered on one socket.
	// When full, the writer flushes and blocks — natural backpressure.
	muxInflightCap = 1024
)

// muxCall states. A call starts queued, moves to written when the writer
// claims it (its bytes will reach the wire), and to done exactly once —
// either by the reader/writer (result or poison) or by the caller's ctx
// firing. The CAS on state is what makes cancellation race-free: a caller
// can only abandon a call that is still queued; once written, the reader
// owns completion and the caller must treat a cancel as ambiguous.
const (
	muxQueued int32 = iota
	muxWritten
	muxDone
)

type muxCall struct {
	cmds    [][][]byte
	state   atomic.Int32
	replies []resp.Value
	err     error
	written bool // bytes reached the wire before the failure
	done    chan struct{}
}

// muxStatus reports how an exchange failed, for idempotency classification.
type muxStatus struct {
	written bool
}

type muxConn struct {
	c net.Conn
	r *resp.Reader
	w *resp.Writer

	mu      sync.Mutex
	pending []*muxCall // submitted, not yet claimed by the writer
	dead    bool
	errv    error

	wake     chan struct{} // cap 1: kicks the writer
	deadCh   chan struct{} // closed on poison
	inflight chan *muxCall // written, awaiting replies (FIFO)

	load atomic.Int64 // calls submitted and not yet finished
}

func newMuxConn(c net.Conn) *muxConn {
	m := &muxConn{
		c:        c,
		r:        resp.NewReaderSize(c, muxBufSize),
		w:        resp.NewWriterSize(c, muxBufSize),
		wake:     make(chan struct{}, 1),
		deadCh:   make(chan struct{}),
		inflight: make(chan *muxCall, muxInflightCap),
	}
	go m.writeLoop()
	go m.readLoop()
	return m
}

// submit queues a call for the writer. Returns an error if the connection
// is already poisoned (the call was never accepted).
func (m *muxConn) submit(call *muxCall) error {
	m.mu.Lock()
	if m.dead {
		err := m.errv
		m.mu.Unlock()
		return err
	}
	m.pending = append(m.pending, call)
	m.load.Add(1)
	m.mu.Unlock()
	select {
	case m.wake <- struct{}{}:
	default:
	}
	return nil
}

// finish completes a call exactly once. gotErr paths pass replies=nil.
// Reports whether this invocation was the one that completed the call.
func (m *muxConn) finish(call *muxCall, replies []resp.Value, err error, written bool) bool {
	from := muxWritten
	if !written {
		from = muxQueued
	}
	if !call.state.CompareAndSwap(from, muxDone) {
		return false
	}
	call.replies = replies
	call.err = err
	call.written = written
	close(call.done)
	m.load.Add(-1)
	return true
}

// poison marks the connection dead, fails every queued and in-flight call,
// and closes the socket. Idempotent; safe from both loops.
func (m *muxConn) poison(err error) {
	m.mu.Lock()
	if m.dead {
		m.mu.Unlock()
		m.drainInflight(m.errv)
		return
	}
	m.dead = true
	m.errv = err
	pending := m.pending
	m.pending = nil
	m.mu.Unlock()
	close(m.deadCh)
	_ = m.c.Close()
	for _, call := range pending {
		m.finish(call, nil, err, false) // never claimed by the writer
	}
	m.drainInflight(err)
}

// drainInflight fails everything written-but-unanswered. Called after
// deadCh is closed, so both loops are exiting and no new sends block; a
// racing writer that enqueued after our drain poisons again on its own
// flush error, re-draining.
func (m *muxConn) drainInflight(err error) {
	for {
		select {
		case call := <-m.inflight:
			m.finish(call, nil, err, true)
		default:
			return
		}
	}
}

// writeLoop is the single writer: it claims batches of pending calls,
// frames them, and flushes once per batch — the coalescing that turns N
// callers' round trips into one syscall.
func (m *muxConn) writeLoop() {
	for {
		select {
		case <-m.wake:
		case <-m.deadCh:
			return
		}
		for {
			m.mu.Lock()
			batch := m.pending
			m.pending = nil
			m.mu.Unlock()
			if len(batch) == 0 {
				break
			}
			for bi, call := range batch {
				if !call.state.CompareAndSwap(muxQueued, muxWritten) {
					continue // caller cancelled before any bytes moved
				}
				if err := m.writeCall(call); err != nil {
					werr := fmt.Errorf("miniredis: mux write: %w", err)
					// Poison before waking anyone, so a caller that
					// retries at once sees a dead conn and redials.
					m.poison(werr)
					m.finish(call, nil, werr, true)
					// Later batch entries never reached the wire.
					for _, rest := range batch[bi+1:] {
						m.finish(rest, nil, werr, false)
					}
					return
				}
			}
			if err := m.w.Flush(); err != nil {
				m.poison(fmt.Errorf("miniredis: mux flush: %w", err))
				return
			}
		}
	}
}

// writeCall frames one call and hands it to the reader. The call must
// already be in the written state.
func (m *muxConn) writeCall(call *muxCall) error {
	for _, cmd := range call.cmds {
		vs := make([]resp.Value, len(cmd))
		for i, a := range cmd {
			vs[i] = resp.Bulk(a)
		}
		if err := m.w.Write(resp.ArrayOf(vs...)); err != nil {
			return err
		}
	}
	select {
	case m.inflight <- call:
		return nil
	default:
	}
	// Inflight is full: flush what we have so the server can answer and
	// drain it, then wait (or bail if the reader poisoned the conn).
	if err := m.w.Flush(); err != nil {
		return err
	}
	select {
	case m.inflight <- call:
		return nil
	case <-m.deadCh:
		return errors.New("connection poisoned")
	}
}

// readLoop is the single reader: replies arrive in the exact order requests
// were written, so the head of inflight always owns the next reply.
func (m *muxConn) readLoop() {
	for {
		var call *muxCall
		select {
		case call = <-m.inflight:
		case <-m.deadCh:
			return
		}
		replies := make([]resp.Value, len(call.cmds))
		for i := range call.cmds {
			v, err := m.r.Read()
			if err != nil {
				rerr := fmt.Errorf("miniredis: mux read reply: %w", err)
				// Poison first: once finish wakes the caller, its next
				// command must not be written to this dying socket.
				m.poison(rerr)
				m.finish(call, nil, rerr, true)
				return
			}
			replies[i] = v
		}
		m.finish(call, replies, nil, true)
	}
}

// exchange submits cmds and waits for replies or ctx. On ctx expiry the
// caller detaches: if the call was still queued it is revoked cleanly
// (never written); if already claimed by the writer the outcome is unknown
// and status.written is set so doMux can apply idempotency rules.
func (m *muxConn) exchange(ctx context.Context, cmds [][][]byte) ([]resp.Value, muxStatus, error) {
	if err := ctx.Err(); err != nil {
		return nil, muxStatus{}, err
	}
	call := &muxCall{cmds: cmds, done: make(chan struct{})}
	if err := m.submit(call); err != nil {
		return nil, muxStatus{}, err
	}
	select {
	case <-call.done:
		return call.replies, muxStatus{written: call.written}, call.err
	case <-ctx.Done():
	}
	// Try to revoke before the writer claims it.
	if call.state.CompareAndSwap(muxQueued, muxDone) {
		m.load.Add(-1)
		return nil, muxStatus{}, ctx.Err()
	}
	// The writer has it (or it just finished). Prefer the real result if
	// completion already happened; otherwise abandon as written/ambiguous.
	select {
	case <-call.done:
		return call.replies, muxStatus{written: call.written}, call.err
	default:
	}
	return nil, muxStatus{written: true}, ctx.Err()
}

// muxPool spreads callers over a small fixed set of muxed connections,
// dispatching to the least-loaded live one and lazily redialing slots whose
// connection was poisoned.
type muxSlot struct {
	mu   sync.Mutex // serializes redials of this slot
	conn atomic.Pointer[muxConn]
}

type muxPool struct {
	slots []muxSlot
	dial  func(ctx context.Context) (net.Conn, error)

	mu     sync.Mutex
	closed bool
}

func newMuxPool(n int, dial func(ctx context.Context) (net.Conn, error)) *muxPool {
	return &muxPool{slots: make([]muxSlot, n), dial: dial}
}

// pick returns a live connection: the least-loaded one, unless a dead/empty
// slot exists and every live conn is already busy — then it redials the
// dead slot (adding capacity beats queuing behind a loaded socket).
func (p *muxPool) pick(ctx context.Context) (*muxConn, error) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil, ErrClientClosed
	}
	p.mu.Unlock()

	var best *muxConn
	bestLoad := int64(-1)
	deadIdx := -1
	for i := range p.slots {
		m := p.slots[i].conn.Load()
		if m == nil || m.isDead() {
			if deadIdx < 0 {
				deadIdx = i
			}
			continue
		}
		if l := m.load.Load(); best == nil || l < bestLoad {
			best, bestLoad = m, l
		}
	}
	if best != nil && (deadIdx < 0 || bestLoad == 0) {
		return best, nil
	}
	if deadIdx < 0 {
		// No live conns and no slot recorded as dead — racing poisons; use
		// slot 0.
		deadIdx = 0
	}
	return p.redial(ctx, deadIdx, best)
}

// redial replaces the connection in slot idx. fallback (may be nil) is a
// live conn to degrade to if dialing fails or the slot lock is contended.
func (p *muxPool) redial(ctx context.Context, idx int, fallback *muxConn) (*muxConn, error) {
	s := &p.slots[idx]
	if !s.mu.TryLock() {
		if fallback != nil {
			return fallback, nil
		}
		s.mu.Lock() // no alternative: wait for the concurrent redial
	}
	defer s.mu.Unlock()
	if m := s.conn.Load(); m != nil && !m.isDead() {
		return m, nil // someone redialed while we waited
	}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil, ErrClientClosed
	}
	p.mu.Unlock()
	c, err := p.dial(ctx)
	if err != nil {
		if fallback != nil {
			return fallback, nil
		}
		return nil, err
	}
	m := newMuxConn(c)
	s.conn.Store(m)
	return m, nil
}

func (m *muxConn) isDead() bool {
	select {
	case <-m.deadCh:
		return true
	default:
		return false
	}
}

func (p *muxPool) close() {
	p.mu.Lock()
	p.closed = true
	p.mu.Unlock()
	for i := range p.slots {
		if m := p.slots[i].conn.Load(); m != nil {
			m.poison(ErrClientClosed)
		}
	}
}
