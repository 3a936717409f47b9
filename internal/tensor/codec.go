package tensor

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"sync"
)

// The wire format is deliberately simple and explicit rather than gob-based
// so that the transport layer has a stable encoding. There is one frame; its
// dtype byte says how wide the elements are:
//
//	magic   uint32 = 0x54534c33 ("TSL3")
//	dtype   uint8  (0 = float64, 1 = float32)
//	rank    uint8  (at most maxRank)
//	zero    2 bytes, must be 0
//	shape   rank × uint32
//	data    volume × dtype.Size() (IEEE-754, little endian)
//
// Both directions stream through one pooled scratch buffer: encode converts
// directly into it and writes straight to the (typically bufio-backed)
// connection, decode reads into it and converts straight into the tensor's
// backing slice — no staging copies, zero allocations at steady state.
const (
	codecMagic  uint32 = 0x54534c33
	codecHdrLen        = 8
	// maxRank bounds the shape a header may announce; it also keeps the
	// header plus shape far inside the scratch buffer.
	maxRank = 8
)

// ErrBadEncoding is wrapped by all decode failures. A clean end of stream
// at a frame boundary is NOT a decode failure: ReadFrom returns bare
// io.EOF when zero bytes are available, so receive loops can tell a
// graceful peer close from a corrupt frame.
var ErrBadEncoding = errors.New("tensor: bad encoding")

// maxDecodeElems bounds a single decoded tensor to ~256 MiB of float64 so a
// corrupted or malicious header cannot trigger an unbounded allocation.
const maxDecodeElems = 32 << 20

// codecChunk is the number of float64 elements converted per streamed
// chunk; the scratch buffer holds 8×codecChunk bytes (32 KiB — within L1
// on anything modern, big enough to amortise the Write call). Float32
// elements are half as wide, so twice as many fit per chunk.
const codecChunk = 4096

// codecBufPool recycles codec scratch buffers across WriteTo/ReadFrom
// calls so the steady-state encode/decode path allocates nothing.
var codecBufPool = sync.Pool{
	New: func() any {
		b := make([]byte, 8*codecChunk)
		return &b
	},
}

// WriteTo serialises t to w at the width its dtype tag names. It
// implements io.WriterTo and performs no allocations — header and data
// stream through one pooled scratch buffer.
func (t *Tensor) WriteTo(w io.Writer) (int64, error) {
	if len(t.shape) > maxRank {
		return 0, fmt.Errorf("tensor: rank %d does not fit the wire format (max %d)", len(t.shape), maxRank)
	}
	bufp := codecBufPool.Get().(*[]byte)
	defer codecBufPool.Put(bufp)
	buf := *bufp

	binary.LittleEndian.PutUint32(buf[0:], codecMagic)
	buf[4] = byte(t.dtype)
	buf[5] = byte(len(t.shape))
	buf[6], buf[7] = 0, 0 // pooled scratch is dirty; every byte must be set
	h := codecHdrLen
	for _, d := range t.shape {
		binary.LittleEndian.PutUint32(buf[h:], uint32(d))
		h += 4
	}
	n, err := w.Write(buf[:h])
	written := int64(n)
	if err != nil {
		return written, fmt.Errorf("tensor: write header: %w", err)
	}

	size := t.dtype.Size()
	for off := 0; off < len(t.data); {
		chunk := min(len(t.data)-off, len(buf)/size)
		if t.dtype == Float32 {
			for i, v := range t.data[off : off+chunk] {
				binary.LittleEndian.PutUint32(buf[4*i:], math.Float32bits(float32(v)))
			}
		} else {
			for i, v := range t.data[off : off+chunk] {
				binary.LittleEndian.PutUint64(buf[8*i:], math.Float64bits(v))
			}
		}
		n, err = w.Write(buf[:size*chunk])
		written += int64(n)
		if err != nil {
			return written, fmt.Errorf("tensor: write data: %w", err)
		}
		off += chunk
	}
	return written, nil
}

// ReadFrom deserialises one tensor frame from r, replacing t's shape,
// contents and dtype tag. It implements io.ReaderFrom.
//
// Two properties matter to receive loops:
//
//   - A stream that ends cleanly before the first header byte returns
//     bare io.EOF, not ErrBadEncoding — a graceful peer close is not a
//     corrupt frame. Any truncation after the first byte IS corruption.
//   - t's backing storage is reused when its capacity suffices, so a
//     loop decoding into one long-lived tensor allocates nothing at
//     steady state. Callers that retain the previous contents must
//     decode into a fresh tensor.
func (t *Tensor) ReadFrom(r io.Reader) (int64, error) {
	bufp := codecBufPool.Get().(*[]byte)
	defer codecBufPool.Put(bufp)
	buf := *bufp

	n, err := io.ReadFull(r, buf[:codecHdrLen])
	read := int64(n)
	if err != nil {
		if n == 0 && err == io.EOF {
			return 0, io.EOF
		}
		return read, fmt.Errorf("%w: header: %v", ErrBadEncoding, err)
	}
	if magic := binary.LittleEndian.Uint32(buf[:4]); magic != codecMagic {
		return read, fmt.Errorf("%w: bad magic %#x", ErrBadEncoding, magic)
	}
	dt, rank := DType(buf[4]), int(buf[5])
	if dt != Float64 && dt != Float32 {
		return read, fmt.Errorf("%w: unknown dtype %d", ErrBadEncoding, buf[4])
	}
	if rank > maxRank {
		return read, fmt.Errorf("%w: implausible rank %d", ErrBadEncoding, rank)
	}
	if buf[6] != 0 || buf[7] != 0 {
		return read, fmt.Errorf("%w: reserved header bytes %#x %#x", ErrBadEncoding, buf[6], buf[7])
	}
	n, err = io.ReadFull(r, buf[:4*rank])
	read += int64(n)
	if err != nil {
		return read, fmt.Errorf("%w: shape: %v", ErrBadEncoding, err)
	}
	shape := t.shape[:0]
	if cap(shape) < rank {
		shape = make([]int, 0, rank)
	}
	vol := 1
	for i := 0; i < rank; i++ {
		d := binary.LittleEndian.Uint32(buf[4*i:])
		shape = append(shape, int(d))
		vol *= int(d)
		if vol > maxDecodeElems {
			return read, fmt.Errorf("%w: tensor too large (%d elems)", ErrBadEncoding, vol)
		}
	}
	data := t.data
	if cap(data) < vol {
		data = make([]float64, vol)
	} else {
		data = data[:vol]
	}

	size := dt.Size()
	for off := 0; off < vol; {
		chunk := min(vol-off, len(buf)/size)
		n, err = io.ReadFull(r, buf[:size*chunk])
		read += int64(n)
		if err != nil {
			return read, fmt.Errorf("%w: data: %v", ErrBadEncoding, err)
		}
		if dt == Float32 {
			for i := range data[off : off+chunk] {
				data[off+i] = float64(math.Float32frombits(binary.LittleEndian.Uint32(buf[4*i:])))
			}
		} else {
			for i := range data[off : off+chunk] {
				data[off+i] = math.Float64frombits(binary.LittleEndian.Uint64(buf[8*i:]))
			}
		}
		off += chunk
	}
	t.shape = shape
	t.stride = stridesInto(t.stride, shape)
	t.data = data
	t.dtype = dt
	return read, nil
}

// stridesInto is strides with caller-supplied storage, reused when its
// capacity suffices — the zero-allocation path for decode loops.
func stridesInto(dst, shape []int) []int {
	if cap(dst) < len(shape) {
		dst = make([]int, len(shape))
	} else {
		dst = dst[:len(shape)]
	}
	acc := 1
	for i := len(shape) - 1; i >= 0; i-- {
		dst[i] = acc
		acc *= shape[i]
	}
	return dst
}

// Interface compliance checks.
var (
	_ io.WriterTo   = (*Tensor)(nil)
	_ io.ReaderFrom = (*Tensor)(nil)
)
