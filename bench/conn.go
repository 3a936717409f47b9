package main

import (
	"net"
	"sync"
	"sync/atomic"
	"time"

	"github.com/stsl/stsl/internal/core"
	"github.com/stsl/stsl/internal/transport"
)

// countingConn counts the bytes that cross the end-system's side of the
// socket. It sits under transport.NewTCPConn, so it sees whole frames:
// headers, trailers, handshake and control frames included.
type countingConn struct {
	net.Conn
	n *atomic.Int64
}

func (c countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.n.Add(int64(n))
	return n, err
}

// Write counts the bytes before they leave: on loopback the peer's
// answer can be read, and a phase snapshot taken, before this goroutine
// runs again after the system call.
func (c countingConn) Write(p []byte) (int, error) {
	c.n.Add(int64(len(p)))
	n, err := c.Conn.Write(p)
	c.n.Add(int64(n - len(p)))
	return n, err
}

// sessionConn is the end-system's transport.Conn with a clock at the
// boundary: it times each activation Send to its matching gradient Recv
// (the step round trip, the time the end-system idles), and with rec set
// it also records a span per compute, send and wait interval. RunClient
// sends from its compute loop and receives from a pump goroutine, so the
// state is mutex-guarded.
type sessionConn struct {
	transport.Conn
	id  int
	rec *recorder // nil when tracing is off
	// onGradient, when set, runs in the receiving goroutine right after
	// the k-th gradient (1-based) has been received — the hook the
	// closed-loop round uses to mark its phase boundaries.
	onGradient func(k int, now time.Time)

	mu        sync.Mutex
	parent    int       // session span id (tracing only)
	opened    time.Time // when the session was due / the dial began
	idleSince time.Time // last welcome or gradient receipt
	sendStart time.Time // first send of the outstanding activation
	sendEnd   time.Time
	seq       int // seq of the outstanding activation, -1 when none
	grads     int
	doneStart time.Time

	rttMs   []float64 // per step: Send entered → gradient Recv returned
	cycleMs []float64 // per step: Send entered → next step's Send entered
	joinMs  float64   // dial began → welcome received
	// payloadElems is the element count of the last activation payload.
	payloadElems int
}

// newSessionConn wraps inner for the session of end-system id that was
// due at opened. With rec set it reserves the session's parent span;
// finish sets its end.
func newSessionConn(inner transport.Conn, id int, opened time.Time, rec *recorder) *sessionConn {
	c := &sessionConn{Conn: inner, id: id, rec: rec, opened: opened, seq: -1}
	if rec != nil {
		c.parent = rec.add(0, id, spanSession, opened, opened)
	}
	return c
}

func (c *sessionConn) Send(m *transport.Message) error {
	t0 := time.Now()
	// The books are opened before the frame leaves: on loopback the
	// gradient can be back in the receiving goroutine before this
	// goroutine runs again.
	fresh := false
	c.mu.Lock()
	switch {
	case m.Type == transport.MsgActivation && m.Seq != c.seq:
		// A resend of the outstanding batch keeps the first send's
		// clock: the end-system has been waiting since then.
		fresh = true
		if !c.sendStart.IsZero() {
			c.cycleMs = append(c.cycleMs, ms(t0.Sub(c.sendStart)))
		}
		if c.rec != nil {
			c.rec.add(c.parent, c.id, spanCompute, c.idleSince, t0)
		}
		c.seq, c.sendStart, c.sendEnd = m.Seq, t0, time.Time{}
		c.payloadElems = m.Payload.Size()
	case m.Type == transport.MsgControl && m.Note == core.DoneNote:
		c.doneStart = t0
	}
	c.mu.Unlock()
	err := c.Conn.Send(m)
	if fresh && c.rec != nil {
		t1 := time.Now()
		c.mu.Lock()
		c.rec.add(c.parent, c.id, spanSend, t0, t1)
		if c.seq == m.Seq {
			c.sendEnd = t1
		}
		c.mu.Unlock()
	}
	return err
}

func (c *sessionConn) Recv() (*transport.Message, error) {
	m, err := c.Conn.Recv()
	if err != nil {
		return m, err
	}
	now := time.Now()
	c.mu.Lock()
	k := 0
	switch {
	case m.Type == transport.MsgControl && m.Note == core.WelcomeNote && c.idleSince.IsZero():
		c.joinMs = ms(now.Sub(c.opened))
		if c.rec != nil {
			c.rec.add(c.parent, c.id, spanJoin, c.opened, now)
		}
		c.idleSince = now
	case m.Type == transport.MsgGradient && m.Seq == c.seq:
		c.rttMs = append(c.rttMs, ms(now.Sub(c.sendStart)))
		if c.rec != nil {
			// A gradient that beat Send's return waited for nothing.
			if !c.sendEnd.IsZero() {
				c.rec.add(c.parent, c.id, spanWait, c.sendEnd, now)
			}
		}
		c.idleSince, c.seq = now, -1
		c.grads++
		k = c.grads
	}
	c.mu.Unlock()
	if k > 0 && c.onGradient != nil {
		c.onGradient(k, now)
	}
	return m, nil
}

// finish closes the books after RunClient returned and the connection
// was closed at end: it records the leave span and patches the session
// span.
func (c *sessionConn) finish(end time.Time) (leaveMs float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.doneStart.IsZero() {
		return 0
	}
	if c.rec != nil {
		// The last gradient's backward pass runs between its receipt
		// and the done note.
		c.rec.add(c.parent, c.id, spanCompute, c.idleSince, c.doneStart)
		c.rec.add(c.parent, c.id, spanLeave, c.doneStart, end)
		c.rec.spans[c.parent-1].End = end.Sub(c.rec.epoch).Nanoseconds()
	}
	return ms(end.Sub(c.doneStart))
}
