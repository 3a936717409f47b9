package tensor

import (
	"bytes"
	"encoding/hex"
	"errors"
	"io"
	"testing"
)

// The one frame layout, pinned for a 2×2 [1 2 3 4] tensor at each width:
// magic "TSL3" (little endian), dtype, rank, two zero bytes, the shape,
// then the elements.
const (
	goldenF64 = "334c5354" + "00" + "02" + "0000" + "02000000" + "02000000" +
		"000000000000f03f" + "0000000000000040" + "0000000000000840" + "0000000000001040"
	goldenF32 = "334c5354" + "01" + "02" + "0000" + "02000000" + "02000000" +
		"0000803f" + "00000040" + "00004040" + "00008040"
)

// golden decodes one of the pinned frames to bytes.
func golden(tb testing.TB, h string) []byte {
	tb.Helper()
	b, err := hex.DecodeString(h)
	if err != nil {
		tb.Fatal(err)
	}
	return b
}

// TestGoldenBytes pins the frame byte for byte at both widths.
func TestGoldenBytes(t *testing.T) {
	src := FromSlice([]float64{1, 2, 3, 4}, 2, 2)
	for _, tc := range []struct {
		dt   DType
		want string
	}{{Float64, goldenF64}, {Float32, goldenF32}} {
		var buf bytes.Buffer
		if _, err := src.Clone().SetDType(tc.dt).WriteTo(&buf); err != nil {
			t.Fatalf("WriteTo (%v): %v", tc.dt, err)
		}
		if got := hex.EncodeToString(buf.Bytes()); got != tc.want {
			t.Errorf("%v encoding drifted:\n got %s\nwant %s", tc.dt, got, tc.want)
		}
	}
}

// TestGoldenDecode proves both pinned frames decode to the same values,
// with the dtype tag recovered from the wire.
func TestGoldenDecode(t *testing.T) {
	want := []float64{1, 2, 3, 4}
	for _, tc := range []struct {
		frame []byte
		dt    DType
	}{
		{golden(t, goldenF64), Float64},
		{golden(t, goldenF32), Float32},
	} {
		var got Tensor
		n, err := got.ReadFrom(bytes.NewReader(tc.frame))
		if err != nil {
			t.Fatalf("%v: ReadFrom: %v", tc.dt, err)
		}
		if n != int64(len(tc.frame)) {
			t.Errorf("%v: read %d bytes, frame is %d", tc.dt, n, len(tc.frame))
		}
		if got.DType() != tc.dt {
			t.Errorf("decoded dtype %v, want %v", got.DType(), tc.dt)
		}
		if !got.Equal(FromSlice(want, 2, 2), 0) {
			t.Errorf("%v: decoded %v, want %v", tc.dt, got.Data(), want)
		}
	}
}

// TestReadFromCleanEOF is the graceful-disconnect contract: zero bytes at
// the frame boundary is bare io.EOF, not a decode error.
func TestReadFromCleanEOF(t *testing.T) {
	var tt Tensor
	n, err := tt.ReadFrom(bytes.NewReader(nil))
	if err != io.EOF {
		t.Fatalf("ReadFrom(empty) = %v, want bare io.EOF", err)
	}
	if errors.Is(err, ErrBadEncoding) {
		t.Fatal("clean EOF must not wrap ErrBadEncoding")
	}
	if n != 0 {
		t.Fatalf("read %d bytes from empty stream", n)
	}
}

// TestReadFromTruncation: anything after the first byte is corruption,
// and so is a header that announces something the decoder must not
// believe — each rejected before any storage is sized from it.
func TestReadFromTruncation(t *testing.T) {
	full := golden(t, goldenF32)
	mutate := func(at int, v byte) []byte {
		f := append([]byte(nil), full...)
		f[at] = v
		return f
	}
	cases := map[string][]byte{
		"mid-magic":        full[:2],
		"at-dtype-byte":    full[:4], // magic complete, dtype byte missing
		"truncated-header": full[:7],
		"mid-shape":        full[:11],
		"mid-data":         full[:len(full)-3],
		"garbage-magic":    []byte("not a tensor at all"),
		"implausible-rank": mutate(5, 9),
		"reserved-nonzero": mutate(6, 1),
		"oversized-volume": mutate(11, 0x7f), // 2 × 0x7f000002 elements
	}
	for name, frame := range cases {
		var tt Tensor
		_, err := tt.ReadFrom(bytes.NewReader(frame))
		if !errors.Is(err, ErrBadEncoding) {
			t.Errorf("%s: err = %v, want ErrBadEncoding", name, err)
		}
	}
}

// TestReadFromUnknownDType rejects a frame with a dtype the decoder does
// not know.
func TestReadFromUnknownDType(t *testing.T) {
	frame := golden(t, goldenF32)
	frame[4] = 7
	var tt Tensor
	if _, err := tt.ReadFrom(bytes.NewReader(frame)); !errors.Is(err, ErrBadEncoding) {
		t.Fatalf("unknown dtype: err = %v, want ErrBadEncoding", err)
	}
}

// TestWriteToRejectsOversizeRank: the rank byte cannot announce more
// dimensions than the decoder accepts, so such a tensor is not encoded.
func TestWriteToRejectsOversizeRank(t *testing.T) {
	var buf bytes.Buffer
	if _, err := New(1, 1, 1, 1, 1, 1, 1, 1, 1).WriteTo(&buf); err == nil || buf.Len() != 0 {
		t.Fatalf("rank-9 tensor: err = %v after %d bytes, want an error before any byte", err, buf.Len())
	}
}

// TestCrossDecode: a float32 frame decodes into a tensor that previously
// held float64 and vice versa — the dtype tag always follows the wire.
func TestCrossDecode(t *testing.T) {
	f64 := FromSlice([]float64{1.5, -2.25, 1.0 / 3.0, 4096.125}, 4)
	f32 := f64.Clone().SetDType(Float32)

	var buf bytes.Buffer
	if _, err := f32.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	// Decode the f32 frame into a tensor currently tagged Float64.
	dst := FromSlice([]float64{9, 9, 9, 9}, 4)
	if _, err := dst.ReadFrom(&buf); err != nil {
		t.Fatal(err)
	}
	if dst.DType() != Float32 {
		t.Fatalf("dtype after f32 decode = %v", dst.DType())
	}
	for i, v := range f64.Data() {
		if got, want := dst.Data()[i], float64(float32(v)); got != want {
			t.Errorf("elem %d: %v, want f32-rounded %v", i, got, want)
		}
	}

	// And back: a float64 frame into the float32-tagged tensor.
	buf.Reset()
	if _, err := f64.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := dst.ReadFrom(&buf); err != nil {
		t.Fatal(err)
	}
	if dst.DType() != Float64 {
		t.Fatalf("dtype after f64 decode = %v", dst.DType())
	}
	if !dst.Equal(f64, 0) {
		t.Errorf("f64 round trip lost precision: %v vs %v", dst.Data(), f64.Data())
	}
}

// TestDTypeRoundTrip: encode/decode preserves values (exactly for f64,
// f32-rounded for f32) across ranks and dtypes.
func TestDTypeRoundTrip(t *testing.T) {
	shapes := [][]int{{}, {1}, {7}, {3, 5}, {2, 3, 4}}
	for _, dt := range []DType{Float64, Float32} {
		for _, shape := range shapes {
			orig := New(shape...).SetDType(dt)
			for i := range orig.data {
				orig.data[i] = float64(i)*0.37 - 2
			}
			var buf bytes.Buffer
			if _, err := orig.WriteTo(&buf); err != nil {
				t.Fatal(err)
			}
			var back Tensor
			if _, err := back.ReadFrom(&buf); err != nil {
				t.Fatal(err)
			}
			if back.DType() != dt {
				t.Fatalf("%v %v: dtype %v", dt, shape, back.DType())
			}
			if !back.SameShape(orig) {
				t.Fatalf("%v %v: shape %v", dt, shape, back.Shape())
			}
			for i, v := range orig.data {
				want := v
				if dt == Float32 {
					want = float64(float32(v))
				}
				if back.data[i] != want {
					t.Errorf("%v %v elem %d: %v, want %v", dt, shape, i, back.data[i], want)
				}
			}
		}
	}
}

// TestCodecSteadyStateAllocs is the pooling contract: encoding to a
// ready writer and decoding into a reused tensor allocate nothing.
func TestCodecSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under -race; alloc counts are nondeterministic")
	}
	src := New(8, 64)
	for i := range src.data {
		src.data[i] = float64(i)
	}
	for _, dt := range []DType{Float64, Float32} {
		src.SetDType(dt)
		if n := testing.AllocsPerRun(100, func() {
			if _, err := src.WriteTo(io.Discard); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("WriteTo (%v): %v allocs/op, want 0", dt, n)
		}

		var buf bytes.Buffer
		if _, err := src.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		frame := buf.Bytes()
		r := bytes.NewReader(frame)
		var dst Tensor
		if _, err := dst.ReadFrom(r); err != nil { // warm the storage
			t.Fatal(err)
		}
		if n := testing.AllocsPerRun(100, func() {
			r.Reset(frame)
			if _, err := dst.ReadFrom(r); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("ReadFrom (%v): %v allocs/op, want 0", dt, n)
		}
	}
}

// BenchmarkCodec measures the steady-state encode/decode hot path; CI
// gates on 0 allocs/op here.
func BenchmarkCodec(b *testing.B) {
	src := New(32, 256) // a realistic activation batch
	for i := range src.data {
		src.data[i] = float64(i) * 0.001
	}
	for _, dt := range []DType{Float64, Float32} {
		src.SetDType(dt)
		b.Run("encode-"+dt.String(), func(b *testing.B) {
			b.SetBytes(int64(src.Size() * dt.Size()))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := src.WriteTo(io.Discard); err != nil {
					b.Fatal(err)
				}
			}
		})
		var buf bytes.Buffer
		if _, err := src.WriteTo(&buf); err != nil {
			b.Fatal(err)
		}
		frame := buf.Bytes()
		b.Run("decode-"+dt.String(), func(b *testing.B) {
			b.SetBytes(int64(len(frame)))
			b.ReportAllocs()
			r := bytes.NewReader(frame)
			var dst Tensor
			for i := 0; i < b.N; i++ {
				r.Reset(frame)
				if _, err := dst.ReadFrom(r); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
