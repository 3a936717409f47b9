package transport

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// tcpConn adapts a net.Conn to the Conn interface with buffered framing.
// Send and Recv each take their own lock, so full-duplex use from two
// goroutines is safe.
type tcpConn struct {
	nc       net.Conn
	ins      *ConnInstruments
	checksum atomic.Bool

	sendMu sync.Mutex
	w      *bufio.Writer

	recvMu sync.Mutex
	r      *bufio.Reader

	closeOnce sync.Once
	closeErr  error
}

// NewTCPConn wraps an established net.Conn in the message framing.
func NewTCPConn(nc net.Conn) Conn {
	return NewInstrumentedTCPConn(nc, nil)
}

// NewInstrumentedTCPConn wraps nc in the message framing with wire
// telemetry: frame and byte counters plus encode/decode timings land in
// ins on every Send/Recv. ins == nil behaves exactly like NewTCPConn.
func NewInstrumentedTCPConn(nc net.Conn, ins *ConnInstruments) Conn {
	rw := nc
	if ins != nil {
		rw = countingConn{Conn: nc, ins: ins}
	}
	return &tcpConn{
		nc:  nc,
		ins: ins,
		w:   bufio.NewWriterSize(rw, 1<<16),
		r:   bufio.NewReaderSize(rw, 1<<16),
	}
}

// Dial connects to a listening server endpoint.
func Dial(addr string) (Conn, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: dial %s: %w", addr, err)
	}
	return NewTCPConn(nc), nil
}

// Send implements Conn.
func (c *tcpConn) Send(m *Message) error {
	c.sendMu.Lock()
	defer c.sendMu.Unlock()
	var start time.Time
	if c.ins != nil {
		start = time.Now()
	}
	var err error
	if c.checksum.Load() {
		err = m.EncodeChecksummed(c.w)
	} else {
		err = m.Encode(c.w)
	}
	if err != nil {
		return err
	}
	if err := c.w.Flush(); err != nil {
		return fmt.Errorf("transport: flush: %w", err)
	}
	if c.ins != nil {
		c.ins.Encode.ObserveSince(start)
		c.ins.FramesOut.Inc()
	}
	return nil
}

// mapRecvErr converts a clean peer close into ErrClosed, matching the
// in-memory transport's semantics.
func mapRecvErr(err error) error {
	if errors.Is(err, io.EOF) || errors.Is(err, net.ErrClosed) {
		return ErrClosed
	}
	return err
}

// Recv implements Conn. A peer that closed cleanly surfaces as ErrClosed.
func (c *tcpConn) Recv() (*Message, error) {
	c.recvMu.Lock()
	defer c.recvMu.Unlock()
	var start time.Time
	if c.ins != nil {
		// Block for the first byte before starting the decode clock, so
		// the histogram measures codec cost rather than peer silence.
		if _, err := c.r.Peek(1); err != nil {
			return nil, mapRecvErr(err)
		}
		start = time.Now()
	}
	m, err := Decode(c.r)
	if err != nil {
		return nil, mapRecvErr(err)
	}
	if c.ins != nil {
		c.ins.Decode.ObserveSince(start)
		c.ins.FramesIn.Inc()
	}
	return m, nil
}

// SetChecksum implements Checksummer: subsequent Sends emit frames with
// a CRC32C trailer. Recv verifies every frame whose flags byte announces
// one, so the two directions need no agreement.
func (c *tcpConn) SetChecksum(on bool) { c.checksum.Store(on) }

// SetWriteDeadline bounds subsequent Sends, forwarding to the carrier
// net.Conn. A Send that overruns the deadline fails with an error that
// matches errors.Is(err, os.ErrDeadlineExceeded); the buffered writer's
// state is undefined afterwards, so the connection must be closed. The
// cluster worker uses this to evict a stalled reader instead of wedging
// every other session behind its TCP backpressure.
func (c *tcpConn) SetWriteDeadline(t time.Time) error { return c.nc.SetWriteDeadline(t) }

// Close implements Conn.
func (c *tcpConn) Close() error {
	c.closeOnce.Do(func() { c.closeErr = c.nc.Close() })
	return c.closeErr
}

// Listener accepts framed connections.
type Listener struct {
	nl  net.Listener
	ins *ConnInstruments
}

// Instrument attaches wire telemetry to every connection subsequently
// accepted — one shared bundle, so a server's /metrics aggregates the
// whole fleet's frames, bytes, and codec timings. Call before Accept.
func (l *Listener) Instrument(ins *ConnInstruments) { l.ins = ins }

// Listen opens a TCP listener on addr (e.g. ":9000", "127.0.0.1:0").
func Listen(addr string) (*Listener, error) {
	nl, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", addr, err)
	}
	return &Listener{nl: nl}, nil
}

// Accept blocks for the next incoming connection.
func (l *Listener) Accept() (Conn, error) {
	nc, err := l.nl.Accept()
	if err != nil {
		return nil, fmt.Errorf("transport: accept: %w", err)
	}
	return NewInstrumentedTCPConn(nc, l.ins), nil
}

// Addr returns the bound address (useful with ":0").
func (l *Listener) Addr() string { return l.nl.Addr().String() }

// Close stops the listener.
func (l *Listener) Close() error { return l.nl.Close() }

var _ Conn = (*tcpConn)(nil)
