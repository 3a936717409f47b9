// Package transport defines the messages exchanged between end-systems
// and the centralized server, and two interchangeable carriers for them:
// an in-memory channel pair for simulation and tests, and a TCP carrier
// with an explicit binary wire format for real deployments.
//
// The protocol is the split-learning exchange from the paper: end-systems
// send the activations of their last local hidden layer together with the
// batch labels ("smashed data"); the server replies with the gradient of
// the loss with respect to those activations. Raw inputs never appear in
// any message — that is the privacy property the framework exists for.
package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"sync"
	"time"

	"github.com/stsl/stsl/internal/tensor"
)

// MsgType discriminates protocol messages.
type MsgType uint8

// Message kinds. Values are part of the wire format; do not reorder.
const (
	// MsgActivation carries client→server forward activations + labels.
	MsgActivation MsgType = iota + 1
	// MsgGradient carries server→client gradients w.r.t. the activations.
	MsgGradient
	// MsgControl carries protocol control notes (hello, done, errors).
	MsgControl
)

// String implements fmt.Stringer.
func (t MsgType) String() string {
	switch t {
	case MsgActivation:
		return "activation"
	case MsgGradient:
		return "gradient"
	case MsgControl:
		return "control"
	default:
		return fmt.Sprintf("MsgType(%d)", uint8(t))
	}
}

// RefusalCode classifies a structured refusal: a control reply that says
// "no" to an admission and tells the client how to respond. A message
// with a code (or a RetryAfter hint) carries the 9-byte refusal extension
// on the wire, announced by its flags byte; every other message does not
// pay for it.
type RefusalCode uint8

// Refusal codes. Values are part of the wire format; do not reorder.
const (
	// RefusalNone marks an ordinary message (never serialised — a zero
	// code with a zero RetryAfter has no refusal extension).
	RefusalNone RefusalCode = iota
	// RefusalOverloaded refuses a join: the server is at MaxSessions.
	// Back off (at least RetryAfter) and rejoin.
	RefusalOverloaded
	// RefusalRetryLater bounces one activation transiently — the
	// sanitizer's below-quarantine verdict, not session death — or turns
	// a join away from a server whose model pool failed. Back off
	// RetryAfter and retry.
	RefusalRetryLater
	// RefusalExpired reports a queued activation was shed past its
	// enqueue deadline, not trained on. Resend it.
	RefusalExpired
)

// String implements fmt.Stringer.
func (c RefusalCode) String() string {
	switch c {
	case RefusalNone:
		return "none"
	case RefusalOverloaded:
		return "overloaded"
	case RefusalRetryLater:
		return "retry-later"
	case RefusalExpired:
		return "expired"
	default:
		return fmt.Sprintf("RefusalCode(%d)", uint8(c))
	}
}

// Message is one protocol datagram.
type Message struct {
	Type     MsgType
	ClientID int
	// Seq numbers the batches of one client; a gradient reply echoes the
	// Seq of the activation it answers.
	Seq int
	// Epoch is the client's local epoch counter (diagnostics only).
	Epoch int
	// SentAt is the sender's (virtual or wall) clock at transmission;
	// the scheduling queue uses it to measure staleness.
	SentAt time.Duration
	// Payload holds activations (MsgActivation) or gradients
	// (MsgGradient); nil for control messages.
	Payload *tensor.Tensor
	// Labels accompany activations so the server can compute the loss.
	Labels []int
	// Note carries control text.
	Note string
	// Code classifies a structured refusal (overload, retry-later,
	// deadline shed). RefusalNone on ordinary traffic. A non-zero Code (or
	// RetryAfter) adds the refusal extension to the frame.
	Code RefusalCode
	// RetryAfter is the server's backoff hint on a refusal: the client
	// should not retry sooner. 0 means no hint.
	RetryAfter time.Duration
}

// Validate checks protocol-level invariants.
func (m *Message) Validate() error {
	switch m.Type {
	case MsgActivation:
		if m.Payload == nil {
			return errors.New("transport: activation message without payload")
		}
		if m.Payload.Dims() == 0 {
			// Dim(0) below would panic on a rank-0 payload, which a
			// corrupted frame can produce.
			return errors.New("transport: activation payload has no batch dimension")
		}
		if len(m.Labels) == 0 {
			return errors.New("transport: activation message without labels")
		}
		if m.Payload.Dim(0) != len(m.Labels) {
			return fmt.Errorf("transport: activation batch %d does not match %d labels",
				m.Payload.Dim(0), len(m.Labels))
		}
	case MsgGradient:
		if m.Payload == nil {
			return fmt.Errorf("transport: %v message without payload", m.Type)
		}
	case MsgControl:
		// No requirements.
	default:
		return fmt.Errorf("transport: unknown message type %d", m.Type)
	}
	if m.Code > RefusalExpired {
		return fmt.Errorf("transport: unknown refusal code %d", uint8(m.Code))
	}
	if m.RetryAfter < 0 {
		return fmt.Errorf("transport: negative RetryAfter %v", m.RetryAfter)
	}
	return nil
}

// The frame. One layout carries every message; the flags byte says which
// optional parts are present, so nothing is negotiated and nothing is
// nested:
//
//	offset  0  magic      uint32 = 0x4d534733 ("MSG3")
//	        4  type       uint8
//	        5  client id  uint32
//	        9  seq        uint32
//	       13  epoch      uint32
//	       17  sent-at    uint64 (nanoseconds)
//	       25  flags      uint8, self-checking (see below)
//	       26  label count uint32
//	       30  [flagRefusal] code uint8, retry-after uint64
//	           [flagPayload] one tensor frame
//	           labels     count × uint32
//	           note       uint32 length, then bytes
//	           [flagCRC]  uint32 CRC32C of every byte before it
const (
	msgMagic   uint32 = 0x4d534733
	msgHdrLen         = 30
	refusalLen        = 9
)

// Flags occupy the low nibble of header byte 25; the high nibble is their
// bitwise complement. The byte decides how much of the stream belongs to
// this frame and whether it is verified, so it must not be trusted after a
// bit flip: any single flip breaks the complement and reads as bad
// framing — in particular a flipped flagCRC can never turn a checksummed
// frame into a valid unchecksummed one. The fourth bit is unassigned and
// must be zero.
const (
	flagPayload byte = 1 << iota
	flagRefusal
	flagCRC
	flagsKnown = flagPayload | flagRefusal | flagCRC
)

// maxLabels and maxNote bound decoded label slices and control notes
// against corrupted headers.
const (
	maxLabels = 1 << 24
	maxNote   = 1 << 20
)

// frameChunk sizes the pooled framing scratch: big enough for the header,
// the note length word, and a useful run of labels per Write call.
const frameChunk = 4096

// framePool recycles framing scratch across Encode/Decode calls so the
// steady-state codec path allocates nothing. (Tensor payloads stream
// through the tensor package's own pool.)
var framePool = sync.Pool{
	New: func() any {
		b := make([]byte, frameChunk)
		return &b
	},
}

// Encode writes the message as one frame without a checksum trailer. It
// is the inverse of Decode and performs no allocations: header, labels
// and note length all stream through one pooled scratch buffer straight
// to w, which in the TCP carrier is the connection's bufio writer.
func (m *Message) Encode(w io.Writer) error { return m.encode(w, false) }

// encode is the one encoder behind Encode and EncodeChecksummed.
func (m *Message) encode(w io.Writer, checksum bool) error {
	// Validate before the first byte hits the wire so a malformed message
	// fails cleanly instead of poisoning the stream with half a frame.
	if err := m.Validate(); err != nil {
		return err
	}
	bufp := framePool.Get().(*[]byte)
	defer framePool.Put(bufp)
	hdr := *bufp

	var flags byte
	if m.Payload != nil {
		flags |= flagPayload
	}
	if m.Code != RefusalNone || m.RetryAfter != 0 {
		flags |= flagRefusal
	}
	raw := w
	var tee *crcTee
	if checksum {
		flags |= flagCRC
		tee = crcTeePool.Get().(*crcTee)
		defer tee.release()
		tee.w, tee.crc = raw, 0
		w = tee
	}
	binary.LittleEndian.PutUint32(hdr[0:], msgMagic)
	hdr[4] = uint8(m.Type)
	binary.LittleEndian.PutUint32(hdr[5:], uint32(m.ClientID))
	binary.LittleEndian.PutUint32(hdr[9:], uint32(m.Seq))
	binary.LittleEndian.PutUint32(hdr[13:], uint32(m.Epoch))
	binary.LittleEndian.PutUint64(hdr[17:], uint64(m.SentAt))
	hdr[25] = flags | (^flags&0x0f)<<4
	binary.LittleEndian.PutUint32(hdr[26:], uint32(len(m.Labels)))
	hdrLen := msgHdrLen
	if flags&flagRefusal != 0 {
		hdr[30] = uint8(m.Code)
		binary.LittleEndian.PutUint64(hdr[31:], uint64(m.RetryAfter))
		hdrLen += refusalLen
	}
	if _, err := w.Write(hdr[:hdrLen]); err != nil {
		return fmt.Errorf("transport: write header: %w", err)
	}
	if m.Payload != nil {
		if _, err := m.Payload.WriteTo(w); err != nil {
			return fmt.Errorf("transport: write payload: %w", err)
		}
	}
	for off := 0; off < len(m.Labels); {
		chunk := min(len(m.Labels)-off, frameChunk/4)
		for i, l := range m.Labels[off : off+chunk] {
			binary.LittleEndian.PutUint32(hdr[4*i:], uint32(l))
		}
		if _, err := w.Write(hdr[:4*chunk]); err != nil {
			return fmt.Errorf("transport: write labels: %w", err)
		}
		off += chunk
	}
	binary.LittleEndian.PutUint32(hdr[0:], uint32(len(m.Note)))
	if _, err := w.Write(hdr[:4]); err != nil {
		return fmt.Errorf("transport: write note length: %w", err)
	}
	if len(m.Note) > 0 {
		// io.WriteString avoids the []byte copy for string-aware writers
		// (bufio.Writer, bytes.Buffer — both carriers qualify).
		if _, err := io.WriteString(w, m.Note); err != nil {
			return fmt.Errorf("transport: write note: %w", err)
		}
	}
	if tee != nil {
		binary.LittleEndian.PutUint32(hdr[0:], tee.crc)
		if _, err := raw.Write(hdr[:4]); err != nil {
			return fmt.Errorf("transport: write checksum trailer: %w", err)
		}
	}
	return nil
}

// Decode reads one frame into a fresh Message, verifying its checksum
// trailer when the frame has one.
//
// A stream that ends cleanly before the first header byte returns bare
// io.EOF — a graceful peer close, not an error. Truncation anywhere past
// that point surfaces as a wrapped io.ErrUnexpectedEOF or decode error.
// A frame whose trailer disagrees with its bytes returns ErrChecksum with
// the stream positioned at the next frame.
func Decode(r io.Reader) (*Message, error) {
	m := new(Message)
	if err := DecodeInto(r, m); err != nil {
		return nil, err
	}
	return m, nil
}

// readFull fills b from r mid-frame, where running out of stream — even
// exactly at a field boundary — is a torn frame and never a clean close.
func readFull(r io.Reader, b []byte, what string) error {
	if _, err := io.ReadFull(r, b); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return fmt.Errorf("transport: read %s: %w", what, err)
	}
	return nil
}

// DecodeInto is Decode reusing m's storage: the payload tensor's backing
// slices and the label slice are retained when their capacity suffices,
// so a receive loop decoding into one long-lived Message allocates
// nothing at steady state. All fields of m are overwritten; callers that
// retain the previous payload or labels must decode into a fresh Message.
func DecodeInto(r io.Reader, m *Message) error {
	bufp := framePool.Get().(*[]byte)
	defer framePool.Put(bufp)
	buf := *bufp

	if n, err := io.ReadFull(r, buf[:msgHdrLen]); err != nil {
		if n == 0 && err == io.EOF {
			// Clean close at the frame boundary: not a decode failure.
			return io.EOF
		}
		return fmt.Errorf("transport: read header: %w", err)
	}
	if magic := binary.LittleEndian.Uint32(buf[0:]); magic != msgMagic {
		return fmt.Errorf("transport: bad magic %#x", magic)
	}
	flags := buf[25] & 0x0f
	if buf[25]>>4 != ^flags&0x0f || flags&^flagsKnown != 0 {
		return fmt.Errorf("transport: bad flags byte %#02x", buf[25])
	}
	raw := r
	var tee *crcTee
	if flags&flagCRC != 0 {
		// Everything from the magic on is covered, so the running sum
		// starts with the header already consumed.
		tee = crcTeePool.Get().(*crcTee)
		defer tee.release()
		tee.r, tee.crc = raw, crc32.Update(0, castagnoli, buf[:msgHdrLen])
		r = tee
	}
	m.Type = MsgType(buf[4])
	m.ClientID = int(int32(binary.LittleEndian.Uint32(buf[5:])))
	m.Seq = int(int32(binary.LittleEndian.Uint32(buf[9:])))
	m.Epoch = int(int32(binary.LittleEndian.Uint32(buf[13:])))
	m.SentAt = time.Duration(binary.LittleEndian.Uint64(buf[17:]))
	m.Note = ""
	m.Code = RefusalNone
	m.RetryAfter = 0
	nLabels := binary.LittleEndian.Uint32(buf[26:])
	if nLabels > maxLabels {
		return fmt.Errorf("transport: implausible label count %d", nLabels)
	}
	if flags&flagRefusal != 0 {
		if err := readFull(r, buf[:refusalLen], "refusal extension"); err != nil {
			return err
		}
		m.Code = RefusalCode(buf[0])
		m.RetryAfter = time.Duration(binary.LittleEndian.Uint64(buf[1:]))
	}
	if flags&flagPayload != 0 {
		if m.Payload == nil {
			m.Payload = new(tensor.Tensor)
		}
		if _, err := m.Payload.ReadFrom(r); err != nil {
			if err == io.EOF {
				// Mid-frame end of stream: the header promised a payload.
				err = io.ErrUnexpectedEOF
			}
			return fmt.Errorf("transport: read payload: %w", err)
		}
	} else {
		m.Payload = nil
	}
	if cap(m.Labels) < int(nLabels) {
		m.Labels = make([]int, nLabels)
	} else {
		m.Labels = m.Labels[:nLabels]
	}
	for off := 0; off < int(nLabels); {
		chunk := min(int(nLabels)-off, frameChunk/4)
		if err := readFull(r, buf[:4*chunk], "labels"); err != nil {
			return err
		}
		for i := range m.Labels[off : off+chunk] {
			m.Labels[off+i] = int(int32(binary.LittleEndian.Uint32(buf[4*i:])))
		}
		off += chunk
	}
	if err := readFull(r, buf[:4], "note length"); err != nil {
		return err
	}
	noteLen := binary.LittleEndian.Uint32(buf[:4])
	if noteLen > maxNote {
		return fmt.Errorf("transport: implausible note length %d", noteLen)
	}
	if noteLen > 0 {
		nbuf := make([]byte, noteLen)
		if err := readFull(r, nbuf, "note"); err != nil {
			return err
		}
		m.Note = string(nbuf)
	}
	if tee != nil {
		// The trailer is read past the tee: it is not part of its own sum.
		if err := readFull(raw, buf[:4], "checksum trailer"); err != nil {
			return err
		}
		if want := binary.LittleEndian.Uint32(buf[:4]); want != tee.crc {
			return fmt.Errorf("transport: frame crc32c %08x, trailer says %08x: %w", tee.crc, want, ErrChecksum)
		}
	}
	return m.Validate()
}
