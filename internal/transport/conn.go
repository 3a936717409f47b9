package transport

import (
	"errors"
	"sync"
	"sync/atomic"
)

// ErrClosed is returned by operations on a closed connection.
var ErrClosed = errors.New("transport: connection closed")

// Conn is a bidirectional, ordered, reliable message channel between one
// end-system and the server. Implementations must allow concurrent Send
// and Recv from different goroutines.
type Conn interface {
	// Send transmits a message. It may block on backpressure.
	Send(m *Message) error
	// Recv blocks for the next message; it returns ErrClosed after the
	// peer closes and all buffered messages are drained.
	Recv() (*Message, error)
	// Close releases the connection. Close is idempotent.
	Close() error
}

// chanConn is one endpoint of an in-memory duplex connection. The two
// data channels are never closed — a sender may still be inside Send when
// either side closes — so closure travels on the closedCh signals alone.
type chanConn struct {
	send chan<- *Message
	recv <-chan *Message

	// checksum records the Checksummer setting. Messages cross by
	// pointer — there is no wire to corrupt or protect — so the flag
	// changes nothing here; it exists so wrappers (FaultCarrier's
	// corrupt emulation) and tests can observe the configured framing.
	checksum atomic.Bool

	closeOnce  sync.Once
	closedCh   chan struct{}   // closed by Close; unblocks local Send/Recv
	peerClosed <-chan struct{} // the peer's closedCh
}

// NewPair returns the two endpoints of an in-memory connection. Messages
// sent on one endpoint are received by the other, in order. buffer sets
// the per-direction channel capacity (0 gives rendezvous semantics; 1 is
// the usual choice per the style guide).
//
// Close on an endpoint unblocks both that endpoint's own pending
// Send/Recv and, once the buffer drains, the peer's Recv — so a server
// can force a session open on either kind of carrier to terminate.
func NewPair(buffer int) (Conn, Conn) {
	ab := make(chan *Message, buffer)
	ba := make(chan *Message, buffer)
	aClosed, bClosed := make(chan struct{}), make(chan struct{})
	a := &chanConn{send: ab, recv: ba, closedCh: aClosed, peerClosed: bClosed}
	b := &chanConn{send: ba, recv: ab, closedCh: bClosed, peerClosed: aClosed}
	return a, b
}

// Send implements Conn.
func (c *chanConn) Send(m *Message) error {
	if err := m.Validate(); err != nil {
		return err
	}
	select {
	case <-c.closedCh:
		return ErrClosed
	default:
	}
	select {
	case c.send <- m:
		return nil
	case <-c.closedCh:
		return ErrClosed
	}
}

// Recv implements Conn. Messages buffered before either side's Close are
// still delivered: a close only wins once nothing is immediately readable.
func (c *chanConn) Recv() (*Message, error) {
	select {
	case m := <-c.recv:
		return m, nil
	case <-c.closedCh:
	case <-c.peerClosed:
	}
	// Closed. The peer's sends happen before its Close, so anything it
	// sent is already buffered: drain that before reporting the close.
	select {
	case m := <-c.recv:
		return m, nil
	default:
		return nil, ErrClosed
	}
}

// SetChecksum implements Checksummer. See the checksum field: a no-op
// beyond recording the preference.
func (c *chanConn) SetChecksum(on bool) { c.checksum.Store(on) }

// Close implements Conn.
func (c *chanConn) Close() error {
	c.closeOnce.Do(func() { close(c.closedCh) })
	return nil
}

var _ Conn = (*chanConn)(nil)
