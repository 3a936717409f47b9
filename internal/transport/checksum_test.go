package transport

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"hash/crc32"
	"io"
	"math"
	"strings"
	"sync"
	"testing"

	"github.com/stsl/stsl/internal/simnet"
	"github.com/stsl/stsl/internal/tensor"
)

// encodeChecksummed renders a message as a checksummed frame, failing the
// test on error.
func encodeChecksummed(tb testing.TB, m *Message) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := m.EncodeChecksummed(&buf); err != nil {
		tb.Fatalf("encode checksummed frame: %v", err)
	}
	return buf.Bytes()
}

// TestChecksummedGoldenFrame pins the checksummed shape of the frame byte
// for byte: the plain layout with the crc flag set, then the little-endian
// CRC32C trailer.
func TestChecksummedGoldenFrame(t *testing.T) {
	const golden = "3347534d" + "03" + "01000000" + "00000000" + "00000000" + "0000000000000000" +
		"b4" + "00000000" + // flags: crc trailer
		"04000000" + "6a6f696e" +
		"d43ca441" // CRC32C of every byte above, little-endian
	frame := encodeChecksummed(t, &Message{Type: MsgControl, ClientID: 1, Note: "join"})
	if got := hex.EncodeToString(frame); got != golden {
		t.Fatalf("checksummed frame bytes changed:\n got  %s\n want %s", got, golden)
	}
}

// TestChecksummedFrameLayout checks every corpus message's checksummed
// frame against the layout contract with stdlib crc32 as an independent
// oracle: it is the plain encoding with only the flags byte changed (crc
// bit set, complement nibble following it), plus a trailer that is the
// CRC32C of everything before it — magic and flags byte included.
func TestChecksummedFrameLayout(t *testing.T) {
	table := crc32.MakeTable(crc32.Castagnoli)
	for i, m := range corpusMessages(t) {
		frame := encodeChecksummed(t, m)
		body := frame[:len(frame)-4]
		plain := encode(t, m)
		plain[25] ^= 0x44 // set the crc flag, clear its complement bit
		if !bytes.Equal(body, plain) {
			t.Fatalf("message %d: frame body differs from the plain encoding beyond the crc flag", i)
		}
		want := crc32.Checksum(body, table)
		if got := binary.LittleEndian.Uint32(frame[len(frame)-4:]); got != want {
			t.Fatalf("message %d: trailer %08x, want crc32c %08x", i, got, want)
		}
	}
}

// TestChecksummedRoundTrip: every corpus message survives the checksummed
// framing field-for-field, through both Decode and a reused DecodeInto.
func TestChecksummedRoundTrip(t *testing.T) {
	var reused Message
	for i, m := range corpusMessages(t) {
		frame := encodeChecksummed(t, m)
		got, err := Decode(bytes.NewReader(frame))
		if err != nil {
			t.Fatalf("message %d: decode: %v", i, err)
		}
		if !bytes.Equal(encode(t, got), encode(t, m)) {
			t.Fatalf("message %d: round trip changed the message", i)
		}
		if err := DecodeInto(bytes.NewReader(frame), &reused); err != nil {
			t.Fatalf("message %d: decode into: %v", i, err)
		}
		if !bytes.Equal(encode(t, &reused), encode(t, m)) {
			t.Fatalf("message %d: reused decode changed the message", i)
		}
	}
}

// TestChecksumSingleBitFlipRejected: every single-bit corruption of a
// checksummed frame is rejected — no flipped frame decodes, whichever bit
// of the magic, the flags byte, the body or the trailer it hits. A flip in
// the flags byte is bad framing (so flipping the crc bit cannot strip the
// check), and flips in the frame body surface as ErrChecksum, which
// deliberately does NOT match ErrClosed: the stream survived, only the
// frame is lost.
func TestChecksumSingleBitFlipRejected(t *testing.T) {
	if errors.Is(ErrChecksum, ErrClosed) {
		t.Fatal("ErrChecksum must not match ErrClosed — the connection survives a corrupt frame")
	}
	for i, m := range corpusMessages(t) {
		frame := encodeChecksummed(t, m)
		sawChecksum := false
		for bit := 0; bit < len(frame)*8; bit++ {
			mut := append([]byte(nil), frame...)
			mut[bit/8] ^= 1 << (bit % 8)
			_, err := Decode(bytes.NewReader(mut))
			if err == nil {
				t.Fatalf("message %d: flip of bit %d decoded successfully", i, bit)
			}
			if bit/8 == 25 && !strings.Contains(err.Error(), "bad flags byte") {
				t.Fatalf("message %d: flip of flags bit %d: %v, want bad flags byte", i, bit%8, err)
			}
			if errors.Is(err, ErrChecksum) {
				sawChecksum = true
				if errors.Is(err, ErrClosed) {
					t.Fatalf("message %d bit %d: ErrChecksum matched ErrClosed", i, bit)
				}
			}
		}
		if !sawChecksum {
			t.Fatalf("message %d: no flip was reported as a checksum mismatch", i)
		}
	}
}

// TestChecksumStreamSurvivesCorruptFrame: after ErrChecksum the reader is
// positioned at the next frame — a receive loop skips the bad frame and
// keeps decoding, mixing checksummed and plain frames freely.
func TestChecksumStreamSurvivesCorruptFrame(t *testing.T) {
	msgs := corpusMessages(t)
	bad := encodeChecksummed(t, msgs[0])
	bad[100] ^= 0x10 // flip a payload-data bit, framing intact
	var stream bytes.Buffer
	stream.Write(bad)
	stream.Write(encodeChecksummed(t, msgs[1]))
	stream.Write(encode(t, msgs[2])) // plain frame after a checksummed one

	if _, err := Decode(&stream); !errors.Is(err, ErrChecksum) {
		t.Fatalf("corrupt frame: %v, want ErrChecksum", err)
	}
	m, err := Decode(&stream)
	if err != nil || m.Type != MsgGradient {
		t.Fatalf("frame after corruption: %v %v", m, err)
	}
	m, err = Decode(&stream)
	if err != nil || m.Note != "join" {
		t.Fatalf("plain frame after checksummed: %v %v", m, err)
	}
}

// TestChecksummedTrailerTruncation: a frame cut in its trailer (or its
// body) is torn, never a clean EOF and never a silent accept.
func TestChecksummedTrailerTruncation(t *testing.T) {
	frame := encodeChecksummed(t, corpusMessages(t)[0])
	for _, cut := range []int{4, 5, len(frame) - 4, len(frame) - 1} {
		_, err := Decode(bytes.NewReader(frame[:cut]))
		if err == nil || err == io.EOF {
			t.Errorf("cut=%d: err = %v, want non-EOF truncation error", cut, err)
		}
	}
}

// TestChecksummedSteadyStateAllocs: the checksummed codec path keeps the
// hot path allocation-free, same gate as the plain codec.
func TestChecksummedSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under -race; alloc counts are nondeterministic")
	}
	payload := tensor.New(8, 64)
	src := &Message{Type: MsgActivation, ClientID: 2, Seq: 5, Payload: payload, Labels: make([]int, 8)}
	if n := testing.AllocsPerRun(100, func() {
		if err := src.EncodeChecksummed(io.Discard); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("EncodeChecksummed: %v allocs/op, want 0", n)
	}

	frame := encodeChecksummed(t, src)
	r := bytes.NewReader(frame)
	var dst Message
	if err := DecodeInto(r, &dst); err != nil { // warm the storage
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() {
		r.Reset(frame)
		if err := DecodeInto(r, &dst); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("DecodeInto (checksummed): %v allocs/op, want 0", n)
	}
}

// TestSetChecksumCarriers: the helper reaches every carrier — TCP frames
// switch encodings, in-memory pairs accept the setting as a no-op, and
// wrappers forward to what they wrap.
func TestSetChecksumCarriers(t *testing.T) {
	a, _ := NewPair(1)
	if !SetChecksum(a, true) {
		t.Error("channel pair should accept the checksum setting")
	}
	fc := NewFaultCarrier(a, nil)
	if !SetChecksum(fc, true) {
		t.Error("FaultCarrier should implement Checksummer")
	}
	hc := NewHostileCarrier(a, PoisonNaN, 0, 0)
	if !SetChecksum(hc, true) {
		t.Error("HostileCarrier should forward the checksum setting")
	}
}

// TestTCPChecksummedInterop: checksummed framing is sender-local — a
// checksumming client talks to a plain server and back with no
// negotiation, over a real TCP connection.
func TestTCPChecksummedInterop(t *testing.T) {
	lis, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	srvc := make(chan Conn, 1)
	go func() {
		c, err := lis.Accept()
		if err == nil {
			srvc <- c
		}
	}()
	cli, err := Dial(lis.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	srv := <-srvc
	defer srv.Close()
	if !SetChecksum(cli, true) {
		t.Fatal("tcp conn should implement Checksummer")
	}

	payload := tensor.FromSlice([]float64{1, 2, 3, 4}, 2, 2)
	if err := cli.Send(&Message{Type: MsgActivation, ClientID: 1, Seq: 9, Payload: payload, Labels: []int{0, 1}}); err != nil {
		t.Fatal(err)
	}
	m, err := srv.Recv() // plain server verifies the checksummed frame transparently
	if err != nil || m.Seq != 9 || m.Payload == nil {
		t.Fatalf("server recv: %v %v", m, err)
	}
	if err := srv.Send(&Message{Type: MsgGradient, ClientID: 1, Seq: 9, Payload: payload}); err != nil {
		t.Fatal(err)
	}
	if m, err = cli.Recv(); err != nil || m.Type != MsgGradient { // plain reply to a checksumming client
		t.Fatalf("client recv: %v %v", m, err)
	}
}

// scriptSched scripts exact per-operation fault decisions, giving tests
// precise control over which operation corrupts and which bit flips.
type scriptSched struct {
	mu   sync.Mutex
	send []simnet.FaultDecision
	recv []simnet.FaultDecision
}

func (s *scriptSched) Next(op simnet.FaultOp) simnet.FaultDecision {
	s.mu.Lock()
	defer s.mu.Unlock()
	q := &s.send
	if op == simnet.FaultRecv {
		q = &s.recv
	}
	if len(*q) == 0 {
		return simnet.FaultDecision{}
	}
	d := (*q)[0]
	*q = (*q)[1:]
	return d
}

// corruptMsg is the activation the corrupt-fault tests ship: its payload
// region dominates the frame, so payloadBit lands where framing survives
// and only the checksum (or the sanitizer) can catch the flip.
func corruptMsg(seq int) *Message {
	payload := tensor.New(2, 32)
	for i := range payload.Data() {
		payload.Data()[i] = float64(i) * 0.5
	}
	return &Message{Type: MsgActivation, ClientID: 1, Seq: seq, Payload: payload, Labels: []int{0, 1}}
}

// payloadBit picks a bit inside the payload-data region of m's
// checksummed encoding — 40 bytes from the end sits well clear of the
// trailing labels/note/trailer bytes for corruptMsg's 512-byte payload.
func payloadBit(tb testing.TB, m *Message) uint64 {
	tb.Helper()
	frame := encodeChecksummed(tb, m)
	return uint64((len(frame) - 40) * 8)
}

// TestFaultCorruptDetectedOnRecv: with checksummed framing on, a bit
// flipped in flight surfaces as ErrChecksum on Recv — the connection
// stays alive and the next delivery arrives intact.
func TestFaultCorruptDetectedOnRecv(t *testing.T) {
	msg := corruptMsg(3)
	a, b := NewPair(4)
	fc := NewFaultCarrier(b, &scriptSched{recv: []simnet.FaultDecision{
		{Action: simnet.FaultCorrupt, Bits: payloadBit(t, msg)},
	}})
	fc.SetChecksum(true)
	for i := 0; i < 2; i++ {
		if err := a.Send(msg); err != nil {
			t.Fatal(err)
		}
	}
	_, err := fc.Recv()
	if !errors.Is(err, ErrChecksum) {
		t.Fatalf("corrupted delivery: %v, want ErrChecksum", err)
	}
	if errors.Is(err, ErrClosed) {
		t.Fatal("detected corruption must not look like a dead connection")
	}
	m, err := fc.Recv()
	if err != nil || m.Seq != 3 {
		t.Fatalf("delivery after corruption: %v %v", m, err)
	}
}

// TestFaultCorruptDetectedOnSend: a corrupted send is dropped silently —
// the peer never sees it, exactly like a receiver that detected and
// discarded the frame — and the link keeps working.
func TestFaultCorruptDetectedOnSend(t *testing.T) {
	msg := corruptMsg(7)
	a, b := NewPair(4)
	fc := NewFaultCarrier(a, &scriptSched{send: []simnet.FaultDecision{
		{Action: simnet.FaultCorrupt, Bits: payloadBit(t, msg)},
	}})
	fc.SetChecksum(true)
	if err := fc.Send(msg); err != nil { // corrupted: detected, dropped
		t.Fatalf("corrupted send should drop silently, got %v", err)
	}
	next := *msg
	next.Seq = 8
	if err := fc.Send(&next); err != nil {
		t.Fatal(err)
	}
	m, err := b.Recv()
	if err != nil || m.Seq != 8 {
		t.Fatalf("peer should only see the clean send: %v %v", m, err)
	}
}

// TestFaultCorruptUndetectedWithoutChecksum: the same flip with plain
// framing delivers a silently corrupted payload — the poisoning class the
// semantic sanitizer exists to catch, demonstrated here so the defense
// layers are each tested against the gap the next one covers.
func TestFaultCorruptUndetectedWithoutChecksum(t *testing.T) {
	msg := corruptMsg(3)
	payload := msg.Payload.Clone()
	var plain bytes.Buffer
	if err := msg.Encode(&plain); err != nil {
		t.Fatal(err)
	}
	a, b := NewPair(4)
	fc := NewFaultCarrier(b, &scriptSched{recv: []simnet.FaultDecision{
		{Action: simnet.FaultCorrupt, Bits: uint64((plain.Len() - 36) * 8)},
	}})
	if err := a.Send(msg); err != nil {
		t.Fatal(err)
	}
	m, err := fc.Recv()
	if err != nil {
		t.Fatalf("plain framing cannot detect the flip: %v", err)
	}
	same := true
	for i, v := range m.Payload.Data() {
		if v != payload.Data()[i] {
			same = false
		}
	}
	if same {
		t.Fatal("flipped bit did not corrupt the payload — the test corrupts the wrong region")
	}
}

// TestHostileCarrierNaN: after the clean grace, activation payloads turn
// all-NaN on the wire while the sender's own tensor stays untouched.
func TestHostileCarrierNaN(t *testing.T) {
	a, b := NewPair(4)
	hc := NewHostileCarrier(a, PoisonNaN, 1, 0)
	payload := tensor.FromSlice([]float64{1, 2, 3, 4}, 2, 2)
	msg := &Message{Type: MsgActivation, ClientID: 1, Seq: 1, Payload: payload, Labels: []int{0, 1}}
	for i := 0; i < 2; i++ {
		if err := hc.Send(msg); err != nil {
			t.Fatal(err)
		}
	}
	m, _ := b.Recv()
	if math.IsNaN(m.Payload.Data()[0]) {
		t.Fatal("send inside the clean grace was poisoned")
	}
	m, _ = b.Recv()
	for i, v := range m.Payload.Data() {
		if !math.IsNaN(v) {
			t.Fatalf("elem %d = %v after grace, want NaN", i, v)
		}
	}
	if payload.Data()[0] != 1 {
		t.Fatal("poison leaked into the sender's own tensor")
	}
}

// TestHostileCarrierScale: the norm-bomb mode multiplies payloads, leaves
// non-activation traffic alone.
func TestHostileCarrierScale(t *testing.T) {
	a, b := NewPair(4)
	hc := NewHostileCarrier(a, PoisonScale, 0, 100)
	if err := hc.Send(&Message{Type: MsgActivation, ClientID: 1, Seq: 1,
		Payload: tensor.FromSlice([]float64{1, -2}, 1, 2), Labels: []int{0}}); err != nil {
		t.Fatal(err)
	}
	m, _ := b.Recv()
	if d := m.Payload.Data(); d[0] != 100 || d[1] != -200 {
		t.Fatalf("scaled payload = %v, want [100 -200]", d)
	}
	if err := hc.Send(&Message{Type: MsgControl, ClientID: 1, Note: "done"}); err != nil {
		t.Fatal(err)
	}
	if m, _ = b.Recv(); m.Note != "done" {
		t.Fatalf("control frame touched: %+v", m)
	}
}
