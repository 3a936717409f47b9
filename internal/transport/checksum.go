package transport

import (
	"errors"
	"hash/crc32"
	"io"
	"sync"
)

// ErrChecksum reports a checksummed frame whose CRC32C trailer did not
// match its contents: the frame arrived, framed correctly, but at least
// one bit changed in flight. Unlike truncation it deliberately does NOT
// match ErrClosed — the framing survived, so the stream is positioned at
// the next frame and the connection remains usable. Receivers drop the
// corrupted frame and keep reading; the sender's resend machinery
// (adaptive RTO on the client, dedup-by-seq on the server) recovers the
// lost message exactly once.
var ErrChecksum = errors.New("transport: frame checksum mismatch")

// castagnoli is the CRC32C polynomial table — hardware-accelerated on
// amd64/arm64, and the checksum production storage stacks use for
// exactly this silent-corruption class.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// crcTee passes reads (decode) or writes (encode) through to the stream it
// wraps while keeping a running CRC32C of the bytes that crossed. Pooled
// so the steady-state codec path stays allocation-free.
type crcTee struct {
	r   io.Reader
	w   io.Writer
	crc uint32
}

func (t *crcTee) Read(p []byte) (int, error) {
	n, err := t.r.Read(p)
	t.crc = crc32.Update(t.crc, castagnoli, p[:n])
	return n, err
}

func (t *crcTee) Write(p []byte) (int, error) {
	n, err := t.w.Write(p)
	t.crc = crc32.Update(t.crc, castagnoli, p[:n])
	return n, err
}

// release drops the wrapped stream and returns t to the pool.
func (t *crcTee) release() {
	t.r, t.w = nil, nil
	crcTeePool.Put(t)
}

var crcTeePool = sync.Pool{New: func() any { return new(crcTee) }}

// EncodeChecksummed writes the message as Encode does with the flagCRC
// bit set and a CRC32C trailer covering every frame byte before it, the
// magic and the flags byte included. Decode verifies the trailer of any
// frame that announces one and returns ErrChecksum on mismatch. Like
// Encode it allocates nothing at steady state.
func (m *Message) EncodeChecksummed(w io.Writer) error { return m.encode(w, true) }

// Checksummer is implemented by carriers that can switch their outgoing
// frames to the checksummed encoding. Decoding needs no switch — the
// frame announces itself — so enabling checksums is a sender-local,
// per-carrier decision with no handshake.
type Checksummer interface {
	// SetChecksum turns checksummed framing on or off for subsequent
	// sends.
	SetChecksum(on bool)
}

// SetChecksum enables (or disables) checksummed framing on c when the
// carrier supports it, reporting whether it did. In-memory carriers
// pass messages by pointer and have no wire to protect; they accept the
// setting (so wrappers can observe it) but it changes nothing.
func SetChecksum(c Conn, on bool) bool {
	cs, ok := c.(Checksummer)
	if ok {
		cs.SetChecksum(on)
	}
	return ok
}
