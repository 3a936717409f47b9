package transport

import (
	"bytes"
	"encoding/hex"
	"errors"
	"io"
	"strings"
	"testing"
	"time"

	"github.com/stsl/stsl/internal/tensor"
)

// TestDecodeCleanEOF: zero bytes at the frame boundary is a graceful
// disconnect — bare io.EOF, not a decode error.
func TestDecodeCleanEOF(t *testing.T) {
	if _, err := Decode(bytes.NewReader(nil)); err != io.EOF {
		t.Fatalf("Decode(empty) = %v, want bare io.EOF", err)
	}
}

// TestDecodeTruncation: a stream that dies after the first byte is
// corruption, reported as an error that is NOT bare io.EOF.
func TestDecodeTruncation(t *testing.T) {
	frame := encode(t, corpusMessages(t)[0])
	for _, cut := range []int{1, 15, 29, 30, 34, len(frame) - 1} {
		_, err := Decode(bytes.NewReader(frame[:cut]))
		if err == nil {
			t.Fatalf("cut=%d: decode succeeded on truncated frame", cut)
		}
		if err == io.EOF {
			t.Errorf("cut=%d: truncation returned bare io.EOF — receive loops would treat it as a clean close", cut)
		}
		if cut >= 30 && !errors.Is(err, io.ErrUnexpectedEOF) && !errors.Is(err, tensor.ErrBadEncoding) {
			t.Errorf("cut=%d: err = %v, want unexpected-EOF or bad-encoding", cut, err)
		}
	}
}

// TestDecodeBadPayloadFlag: the flags byte is self-checking. Of its 256
// values only those whose high nibble complements the low one, with the
// unassigned bit clear, are framing; every other value — which includes
// every single-bit flip of a valid one — is rejected as bad framing and
// never read as a frame with different parts.
func TestDecodeBadPayloadFlag(t *testing.T) {
	frame := encode(t, corpusMessages(t)[0])
	valid := 0
	for v := 0; v < 256; v++ {
		low, high := byte(v)&0x0f, byte(v)>>4
		frame[25] = byte(v)
		_, err := Decode(bytes.NewReader(frame))
		if high == ^low&0x0f && low&0x08 == 0 {
			valid++
			continue // framing; whether the rest decodes is not this test's business
		}
		if err == nil || !strings.Contains(err.Error(), "bad flags byte") {
			t.Errorf("flags=%#02x: err = %v, want bad flags byte rejection", v, err)
		}
	}
	if valid != 8 {
		t.Fatalf("%d flags bytes accepted as framing, want 8", valid)
	}
}

// TestDecodeRefusesUnknownTypes: a type byte outside 1–3 — zero, the two
// retired values 4 and 5, or anything beyond — fails Decode as an unknown
// message type instead of decoding into a message no receiver handles.
func TestDecodeRefusesUnknownTypes(t *testing.T) {
	frame := encode(t, &Message{Type: MsgControl, ClientID: 1, Note: "join"})
	for _, typ := range []byte{0, 4, 5, 0xff} {
		bad := append([]byte{}, frame...)
		bad[4] = typ
		_, err := Decode(bytes.NewReader(bad))
		if err == nil || !strings.Contains(err.Error(), "unknown message type") {
			t.Errorf("type byte %d: err = %v, want unknown message type", typ, err)
		}
	}
}

func TestMsgTypeString(t *testing.T) {
	cases := map[MsgType]string{
		MsgActivation: "activation",
		MsgGradient:   "gradient",
		MsgControl:    "control",
		MsgType(4):    "MsgType(4)",
		MsgType(99):   "MsgType(99)",
	}
	for typ, want := range cases {
		if got := typ.String(); got != want {
			t.Fatalf("String(%d) = %q, want %q", typ, got, want)
		}
	}
}

// TestFloat32MessageRoundTrip: a float32-tagged payload crosses the wire
// at half the payload bytes, in the same frame, and comes back
// float32-rounded.
func TestFloat32MessageRoundTrip(t *testing.T) {
	payload := tensor.FromSlice([]float64{0.1, 0.2, 0.3, 1.0 / 3.0}, 2, 2)
	m64 := &Message{Type: MsgActivation, ClientID: 1, Seq: 1, Payload: payload.Clone(), Labels: []int{0, 1}}
	m32 := &Message{Type: MsgActivation, ClientID: 1, Seq: 1,
		Payload: payload.Clone().SetDType(tensor.Float32), Labels: []int{0, 1}}

	var b64, b32 bytes.Buffer
	if err := m64.Encode(&b64); err != nil {
		t.Fatal(err)
	}
	if err := m32.Encode(&b32); err != nil {
		t.Fatal(err)
	}
	// Same header at both widths; float32 saves 4 bytes per element.
	if want := 4 * payload.Size(); b64.Len()-b32.Len() != want {
		t.Errorf("f32 frame saves %d bytes, want %d", b64.Len()-b32.Len(), want)
	}

	got, err := Decode(&b32)
	if err != nil {
		t.Fatal(err)
	}
	if got.Payload.DType() != tensor.Float32 {
		t.Fatalf("decoded payload dtype %v", got.Payload.DType())
	}
	for i, v := range payload.Data() {
		if want := float64(float32(v)); got.Payload.Data()[i] != want {
			t.Errorf("elem %d: %v, want f32-rounded %v", i, got.Payload.Data()[i], want)
		}
	}
}

// TestRefusalRoundTrip: a message carrying a refusal code and RetryAfter
// sets the refusal flag, costs exactly the 9-byte extension, and decodes
// back field-for-field.
func TestRefusalRoundTrip(t *testing.T) {
	plain := &Message{Type: MsgControl, ClientID: 7, Seq: 3, Note: "refused: overloaded"}
	refusal := &Message{Type: MsgControl, ClientID: 7, Seq: 3, Note: "refused: overloaded",
		Code: RefusalOverloaded, RetryAfter: 250 * time.Millisecond}

	var bPlain, bRef bytes.Buffer
	if err := plain.Encode(&bPlain); err != nil {
		t.Fatal(err)
	}
	if err := refusal.Encode(&bRef); err != nil {
		t.Fatal(err)
	}
	if got, want := bRef.Bytes()[25], byte(0xd2); got != want {
		t.Fatalf("refusal frame flags byte %#02x, want %#02x", got, want)
	}
	if diff := bRef.Len() - bPlain.Len(); diff != 9 {
		t.Fatalf("refusal extension costs %d bytes, want 9", diff)
	}

	got, err := Decode(&bRef)
	if err != nil {
		t.Fatal(err)
	}
	if got.Code != RefusalOverloaded || got.RetryAfter != 250*time.Millisecond || got.Note != refusal.Note {
		t.Fatalf("round trip lost refusal fields: %+v", got)
	}
}

// TestGoldenFrames pins the one frame layout byte for byte in each of its
// shapes: no optional part, the refusal extension, and a payload.
func TestGoldenFrames(t *testing.T) {
	for _, tc := range []struct {
		name string
		m    *Message
		want string
	}{
		{"plain", &Message{Type: MsgControl, ClientID: 1, Note: "join"},
			"3347534d" + "03" + "01000000" + "00000000" + "00000000" + "0000000000000000" +
				"f0" + "00000000" + // flags: nothing optional
				"04000000" + "6a6f696e"},
		{"refusal", &Message{Type: MsgControl, ClientID: 9, Seq: 41, Note: "rejected",
			Code: RefusalExpired, RetryAfter: 3 * time.Millisecond},
			"3347534d" + "03" + "09000000" + "29000000" + "00000000" + "0000000000000000" +
				"d2" + "00000000" + // flags: refusal extension
				"03" + "c0c62d0000000000" +
				"08000000" + "72656a6563746564"},
		{"payload", &Message{Type: MsgGradient, ClientID: 3, Seq: 7, Epoch: 1, SentAt: 2345,
			Payload: tensor.FromSlice([]float64{1, 2}, 1, 2).SetDType(tensor.Float32)},
			"3347534d" + "02" + "03000000" + "07000000" + "01000000" + "2909000000000000" +
				"e1" + "00000000" + // flags: payload
				"334c5354" + "01" + "02" + "0000" + "01000000" + "02000000" + "0000803f" + "00000040" +
				"00000000"},
	} {
		if got := hex.EncodeToString(encode(t, tc.m)); got != tc.want {
			t.Errorf("%s frame bytes changed:\n got  %s\n want %s", tc.name, got, tc.want)
		}
	}
}

// TestRefusalFieldsResetOnReuse: decoding a frame without the refusal
// extension into a Message that previously held a refusal must clear the
// extension fields.
func TestRefusalFieldsResetOnReuse(t *testing.T) {
	var m Message
	refusal := &Message{Type: MsgControl, Code: RefusalRetryLater, RetryAfter: time.Second}
	if err := DecodeInto(bytes.NewReader(encode(t, refusal)), &m); err != nil {
		t.Fatal(err)
	}
	if err := DecodeInto(bytes.NewReader(encode(t, corpusMessages(t)[2])), &m); err != nil {
		t.Fatal(err)
	}
	if m.Code != RefusalNone || m.RetryAfter != 0 {
		t.Fatalf("refusal fields leaked across reuse: code=%v retryAfter=%v", m.Code, m.RetryAfter)
	}
}

// TestRefusalBadCodeRejected: an undefined code byte is bad framing, and
// a truncated extension is truncation — never a silent partial decode.
func TestRefusalBadCodeRejected(t *testing.T) {
	frame := encode(t, &Message{Type: MsgControl, Code: RefusalExpired, RetryAfter: time.Millisecond})
	bad := append([]byte{}, frame...)
	bad[30] = 0x7f
	if _, err := Decode(bytes.NewReader(bad)); err == nil || !strings.Contains(err.Error(), "refusal code") {
		t.Errorf("undefined code: err = %v, want refusal-code rejection", err)
	}
	for _, cut := range []int{31, 35, 38} {
		_, err := Decode(bytes.NewReader(frame[:cut]))
		if err == nil || err == io.EOF {
			t.Errorf("cut=%d: err = %v, want non-EOF truncation error", cut, err)
		}
	}
}

// TestDecodeIntoOverwrites: reusing one Message across frames must not
// leak fields from the previous decode.
func TestDecodeIntoOverwrites(t *testing.T) {
	msgs := corpusMessages(t)
	var m Message
	// Decode a payload+labels+note-free activation, then a control frame
	// with a note, then the activation again.
	for _, want := range []*Message{msgs[0], msgs[2], msgs[0]} {
		if err := DecodeInto(bytes.NewReader(encode(t, want)), &m); err != nil {
			t.Fatal(err)
		}
		if (m.Payload != nil) != (want.Payload != nil) {
			t.Fatalf("payload presence leaked: got %v, want %v", m.Payload != nil, want.Payload != nil)
		}
		if len(m.Labels) != len(want.Labels) || m.Note != want.Note {
			t.Fatalf("fields leaked across reuse: %+v vs %+v", m, want)
		}
	}
}

// TestMessageCodecSteadyStateAllocs: Encode and DecodeInto allocate
// nothing once the reused Message's storage is warm.
func TestMessageCodecSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under -race; alloc counts are nondeterministic")
	}
	for _, dt := range []tensor.DType{tensor.Float64, tensor.Float32} {
		payload := tensor.New(8, 64).SetDType(dt)
		labels := make([]int, 8)
		src := &Message{Type: MsgActivation, ClientID: 2, Seq: 5, Payload: payload, Labels: labels}

		if n := testing.AllocsPerRun(100, func() {
			if err := src.Encode(io.Discard); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("Encode (%v): %v allocs/op, want 0", dt, n)
		}

		var buf bytes.Buffer
		if err := src.Encode(&buf); err != nil {
			t.Fatal(err)
		}
		frame := buf.Bytes()
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
			t.Errorf("DecodeInto (%v): %v allocs/op, want 0", dt, n)
		}
	}
}

// BenchmarkMessageCodec measures the framing hot path; CI gates on
// 0 allocs/op for encode and decode-into.
func BenchmarkMessageCodec(b *testing.B) {
	for _, dt := range []tensor.DType{tensor.Float64, tensor.Float32} {
		payload := tensor.New(32, 256).SetDType(dt)
		for i := range payload.Data() {
			payload.Data()[i] = float64(i) * 0.001
		}
		src := &Message{Type: MsgActivation, ClientID: 2, Seq: 5, Payload: payload, Labels: make([]int, 32)}
		b.Run("encode-"+dt.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := src.Encode(io.Discard); err != nil {
					b.Fatal(err)
				}
			}
		})
		var buf bytes.Buffer
		if err := src.Encode(&buf); err != nil {
			b.Fatal(err)
		}
		frame := buf.Bytes()
		b.Run("decode-"+dt.String(), func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(frame)))
			r := bytes.NewReader(frame)
			var dst Message
			for i := 0; i < b.N; i++ {
				r.Reset(frame)
				if err := DecodeInto(r, &dst); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
