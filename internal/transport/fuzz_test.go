package transport

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"github.com/stsl/stsl/internal/tensor"
)

// corpusMessages are real frames of every message kind — the seed corpus
// is recorded by encoding them, so the fuzzer starts from wire bytes the
// protocol actually produces rather than from noise.
func corpusMessages(tb testing.TB) []*Message {
	tb.Helper()
	act := tensor.New(2, 3, 4, 4)
	for i := range act.Data() {
		act.Data()[i] = float64(i) * 0.25
	}
	grad := tensor.New(2, 8)
	grad.Data()[3] = -1.5
	// The same payloads tagged float32 exercise the half-width element
	// path end to end.
	act32 := act.Clone().SetDType(tensor.Float32)
	grad32 := grad.Clone().SetDType(tensor.Float32)
	return []*Message{
		{Type: MsgActivation, ClientID: 3, Seq: 7, Epoch: 1, SentAt: 1234,
			Payload: act, Labels: []int{0, 2}},
		{Type: MsgGradient, ClientID: 3, Seq: 7, Epoch: 1, SentAt: 2345, Payload: grad},
		{Type: MsgControl, ClientID: 1, Note: "join"},
		{Type: MsgControl, ClientID: 1, Seq: 0x7ead11ed, Note: "welcome"},
		{Type: MsgControl, ClientID: 1, Seq: 0x7ead11ed, Note: "resume"},
		{Type: MsgActivation, ClientID: 5, Seq: 9, Epoch: 2, SentAt: 3456,
			Payload: act32, Labels: []int{1, 3}},
		{Type: MsgGradient, ClientID: 5, Seq: 9, Epoch: 2, SentAt: 4567, Payload: grad32},
		// Structured refusals carrying a code and a RetryAfter hint in
		// the refusal extension.
		{Type: MsgControl, ClientID: 9, Note: "refused: overloaded",
			Code: RefusalOverloaded, RetryAfter: 25 * time.Millisecond},
		{Type: MsgControl, ClientID: 5, Seq: 10, Note: "rejected",
			Code: RefusalRetryLater, RetryAfter: 25 * time.Millisecond},
		{Type: MsgControl, ClientID: 9, Seq: 41, Note: "rejected",
			Code: RefusalExpired, RetryAfter: 3 * time.Millisecond},
	}
}

// encode renders a message to wire bytes, failing the test on error.
func encode(tb testing.TB, m *Message) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := m.Encode(&buf); err != nil {
		tb.Fatalf("encode seed frame: %v", err)
	}
	return buf.Bytes()
}

// firstSeed encodes the first corpus message with the given property, so a
// seed that corrupts one particular byte keeps its target when the corpus
// grows or shrinks.
func firstSeed(tb testing.TB, has func(*Message) bool) []byte {
	tb.Helper()
	for _, m := range corpusMessages(tb) {
		if has(m) {
			return encode(tb, m)
		}
	}
	tb.Fatal("no corpus message has the seed's property")
	return nil
}

// FuzzDecode hammers the wire decoder with mutated frames. The contract
// under test: malformed, truncated, or oversized input returns an error
// — never a panic, never an unbounded allocation — and any input that
// does decode survives a re-encode/re-decode round trip unchanged (so a
// relay cannot corrupt a message it forwards).
func FuzzDecode(f *testing.F) {
	for _, m := range corpusMessages(f) {
		raw := encode(f, m)
		f.Add(raw)
		// Truncations at structural boundaries: header, the refusal
		// extension (31–38), the payload's dtype byte (34), mid-data,
		// labels, note length.
		for _, cut := range []int{1, 4, 29, 31, 34, 38, len(raw) / 2, len(raw) - 1} {
			if cut > 0 && cut < len(raw) {
				f.Add(raw[:cut])
			}
		}
	}
	// An adversarial seed: a plausible header announcing an oversized
	// label block.
	big := encode(f, corpusMessages(f)[0])
	big[26], big[27], big[28] = 0xff, 0xff, 0xff
	f.Add(big)
	// A flipped payload-present flag: must be rejected as bad framing,
	// not silently decoded without its payload.
	flag2 := encode(f, corpusMessages(f)[0])
	flag2[25] ^= 1
	f.Add(flag2)
	// A payload whose dtype byte is not a dtype.
	badDT := firstSeed(f, func(m *Message) bool {
		return m.Payload != nil && m.Payload.DType() == tensor.Float32 && len(m.Labels) > 0
	})
	badDT[34] = 0x7f
	f.Add(badDT)
	// A refusal whose code byte is not a defined code.
	badCode := firstSeed(f, func(m *Message) bool { return m.Code != RefusalNone })
	badCode[30] = 0x7f
	f.Add(badCode)
	// Checksummed seeds: valid frames, trailer truncations, and a
	// CRC mismatch — the fuzzer mutates from wire bytes the checksummed
	// codec actually produces.
	for _, m := range corpusMessages(f) {
		raw := encodeChecksummed(f, m)
		f.Add(raw)
		f.Add(raw[:len(raw)-4]) // trailer cut off entirely
		f.Add(raw[:len(raw)-2]) // trailer torn mid-word
		bad := append([]byte(nil), raw...)
		bad[len(bad)-1] ^= 0xff // trailer disagrees with the body
		f.Add(bad)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Decode(bytes.NewReader(data))
		if err != nil {
			return // rejecting garbage is the correct outcome
		}
		var buf bytes.Buffer
		if err := m.Encode(&buf); err != nil {
			t.Fatalf("decoded message failed to re-encode: %v\nmessage: %+v", err, m)
		}
		m2, err := Decode(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("re-encoded message failed to decode: %v", err)
		}
		// Compare at the wire level, not with DeepEqual: payload floats
		// can be NaN (NaN != NaN), but their bit patterns must survive
		// the round trip exactly.
		var buf2 bytes.Buffer
		if err := m2.Encode(&buf2); err != nil {
			t.Fatalf("second re-encode failed: %v", err)
		}
		if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
			t.Fatalf("round trip changed the wire bytes:\n first: %+v\nsecond: %+v", m, m2)
		}
		// Checksummed round trip: the checksummed framing of any decodable
		// message must decode back, and a single bit flipped anywhere in
		// the frame must be rejected — that is the whole point of the
		// trailer. The flipped bit is derived from the input so each
		// corpus entry probes a different position deterministically.
		var cbuf bytes.Buffer
		if err := m.EncodeChecksummed(&cbuf); err != nil {
			t.Fatalf("decoded message failed to encode checksummed: %v", err)
		}
		cframe := cbuf.Bytes()
		if _, err := Decode(bytes.NewReader(cframe)); err != nil {
			t.Fatalf("checksummed re-encode failed to decode: %v", err)
		}
		var seed uint64
		for _, b := range data {
			seed = seed*131 + uint64(b)
		}
		bit := int(seed % uint64(len(cframe)*8))
		mut := append([]byte(nil), cframe...)
		mut[bit/8] ^= 1 << (bit % 8)
		if _, err := Decode(bytes.NewReader(mut)); err == nil {
			t.Fatalf("single bit flip at %d of a checksummed frame decoded successfully", bit)
		}
	})
}

// FuzzDecodeStream feeds the decoder two concatenated fuzzed frames —
// the framing must either consume the first cleanly (leaving the reader
// positioned at the second) or error; it must never panic on what
// follows a valid frame.
func FuzzDecodeStream(f *testing.F) {
	msgs := corpusMessages(f)
	f.Add(encode(f, msgs[0]), encode(f, msgs[2]))
	f.Add(encode(f, msgs[1]), []byte{0xde, 0xad})
	// Mixed framings on one stream: checksummed then plain, plain then
	// checksummed, and a CRC-mismatched frame ahead of a valid one (the
	// decoder must stay positioned to read the second).
	f.Add(encodeChecksummed(f, msgs[0]), encode(f, msgs[2]))
	f.Add(encode(f, msgs[2]), encodeChecksummed(f, msgs[1]))
	badFirst := encodeChecksummed(f, msgs[0])
	badFirst[len(badFirst)-1] ^= 0xff
	f.Add(badFirst, encodeChecksummed(f, msgs[2]))
	f.Fuzz(func(t *testing.T, first, second []byte) {
		r := bytes.NewReader(append(append([]byte{}, first...), second...))
		for i := 0; i < 2; i++ {
			// ErrChecksum leaves the stream positioned at the next frame
			// — a receive loop skips and reads on, so the fuzzer does too.
			if _, err := Decode(r); err != nil && !errors.Is(err, ErrChecksum) {
				return
			}
		}
	})
}
