// Package tensor implements a small dense N-dimensional array of float64
// values with the operations required to train convolutional neural
// networks: elementwise arithmetic, matrix multiplication, transposition,
// padding, and the convolution, lowered per image from a padded copy of
// its input to a product of the filters with a channel-major matrix, with
// its two gradients.
//
// Tensors are row-major and own their backing slice. Operations either
// return fresh tensors, mutate the receiver in place where documented, or
// — the …Into forms of the kernels a training step runs — write into a
// destination the caller owns. An …Into form takes dst first, reuses it
// when it already has the result's shape (see Reuse) and replaces it
// otherwise, zeroes or overwrites every element itself, panics when dst
// shares storage with an operand, and returns the tensor it wrote. A
// caller that keeps dst across calls therefore allocates once per shape.
//
// Large kernels fan out over the CPUs through ParallelFor, whose workers
// start at package init. They split outputs — rows of a product, images
// of a batch — never a reduction, so every result is bit-identical to
// the serial kernel's at any GOMAXPROCS, and a warm call allocates
// nothing.
//
// float64 was chosen over float32 so that analytic gradients can be checked
// against central finite differences to tight tolerances; the cost of the
// choice is measured in the benchmark suite.
package tensor

import (
	"fmt"
	"math"
	"strings"
	"unsafe"

	"github.com/stsl/stsl/internal/mathx"
)

// Tensor is a dense row-major N-dimensional array. The zero value is an
// empty tensor; use New or one of the constructors.
type Tensor struct {
	shape []int
	// stride[i] is the linear distance between consecutive indices along
	// dimension i.
	stride []int
	data   []float64
	// dtype tags the wire precision (see dtype.go). Storage is always
	// float64; the zero value Float64 encodes at full width.
	dtype DType
}

// New returns a zero-filled tensor with the given shape. A call with no
// dimensions returns a scalar tensor of one element. It panics if any
// dimension is negative.
func New(shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		if d < 0 {
			// The message formats a copy: handing shape itself to fmt
			// would make every caller's variadic slice escape to the heap.
			panic(fmt.Sprintf("tensor: negative dimension %d in shape %v", d, append([]int(nil), shape...)))
		}
		n *= d
	}
	t := &Tensor{
		shape: append([]int(nil), shape...),
		data:  make([]float64, n),
	}
	t.stride = strides(t.shape)
	return t
}

// Reuse returns t unchanged when it already has the given shape, and a
// fresh zero-filled tensor of that shape otherwise (t may be nil). A
// reused tensor keeps its old contents. It is how a layer keeps one
// workspace per buffer and reallocates only when the batch shape changes.
func Reuse(t *Tensor, shape ...int) *Tensor {
	if t != nil && t.hasShape(shape) {
		return t
	}
	return New(shape...)
}

func (t *Tensor) hasShape(shape []int) bool {
	if len(t.shape) != len(shape) {
		return false
	}
	for i, d := range shape {
		if t.shape[i] != d {
			return false
		}
	}
	return true
}

// mustNotAlias panics when dst shares storage with an operand: an …Into
// kernel zeroes or overwrites dst before it has finished reading its
// operands.
func mustNotAlias(op string, dst *Tensor, operands ...*Tensor) {
	for _, o := range operands {
		if overlaps(dst.data, o.data) {
			panic("tensor: " + op + " destination shares storage with an operand")
		}
	}
}

func overlaps(a, b []float64) bool {
	if len(a) == 0 || len(b) == 0 {
		return false
	}
	const size = unsafe.Sizeof(a[0])
	a0, b0 := uintptr(unsafe.Pointer(&a[0])), uintptr(unsafe.Pointer(&b[0]))
	return a0 < b0+uintptr(len(b))*size && b0 < a0+uintptr(len(a))*size
}

// FromSlice returns a tensor with the given shape whose backing data is a
// copy of data. It panics when len(data) does not match the shape volume.
func FromSlice(data []float64, shape ...int) *Tensor {
	t := New(shape...)
	if len(data) != len(t.data) {
		panic(fmt.Sprintf("tensor: data length %d does not match shape %v (want %d)",
			len(data), shape, len(t.data)))
	}
	copy(t.data, data)
	return t
}

// Rand returns a tensor with elements drawn uniformly from [lo, hi).
func Rand(r *mathx.RNG, lo, hi float64, shape ...int) *Tensor {
	t := New(shape...)
	for i := range t.data {
		t.data[i] = r.Range(lo, hi)
	}
	return t
}

// Randn returns a tensor with elements drawn from N(0, stddev²).
func Randn(r *mathx.RNG, stddev float64, shape ...int) *Tensor {
	t := New(shape...)
	for i := range t.data {
		t.data[i] = r.Norm() * stddev
	}
	return t
}

func strides(shape []int) []int {
	s := make([]int, len(shape))
	acc := 1
	for i := len(shape) - 1; i >= 0; i-- {
		s[i] = acc
		acc *= shape[i]
	}
	return s
}

// Shape returns a copy of the tensor's shape.
func (t *Tensor) Shape() []int { return append([]int(nil), t.shape...) }

// Dims returns the number of dimensions.
func (t *Tensor) Dims() int { return len(t.shape) }

// Dim returns the size of dimension i.
func (t *Tensor) Dim(i int) int { return t.shape[i] }

// Size returns the total number of elements.
func (t *Tensor) Size() int { return len(t.data) }

// Data returns the backing slice. Mutating it mutates the tensor; callers
// that need isolation must copy. The slice is row-major.
func (t *Tensor) Data() []float64 { return t.data }

// SameShape reports whether t and o have identical shapes.
func (t *Tensor) SameShape(o *Tensor) bool { return t.hasShape(o.shape) }

// offset converts a multi-index to a linear offset, panicking on
// out-of-range indices.
func (t *Tensor) offset(idx []int) int {
	if len(idx) != len(t.shape) {
		panic(fmt.Sprintf("tensor: index rank %d does not match tensor rank %d", len(idx), len(t.shape)))
	}
	off := 0
	for i, x := range idx {
		if x < 0 || x >= t.shape[i] {
			panic(fmt.Sprintf("tensor: index %v out of range for shape %v", idx, t.shape))
		}
		off += x * t.stride[i]
	}
	return off
}

// At returns the element at the given multi-index.
func (t *Tensor) At(idx ...int) float64 { return t.data[t.offset(idx)] }

// Set assigns the element at the given multi-index.
func (t *Tensor) Set(v float64, idx ...int) { t.data[t.offset(idx)] = v }

// Clone returns a deep copy of t, preserving its dtype tag.
func (t *Tensor) Clone() *Tensor { return t.CloneInto(nil) }

// CloneInto is Clone's destination form: it copies t, dtype tag included,
// into dst (reused when its shape matches t's) and returns it.
func (t *Tensor) CloneInto(dst *Tensor) *Tensor {
	dst = Reuse(dst, t.shape...)
	copy(dst.data, t.data)
	dst.dtype = t.dtype
	return dst
}

// CopyFrom copies o's data into t. Shapes must match exactly.
func (t *Tensor) CopyFrom(o *Tensor) {
	if !t.SameShape(o) {
		panic(fmt.Sprintf("tensor: CopyFrom shape mismatch %v vs %v", t.shape, o.shape))
	}
	copy(t.data, o.data)
}

// Reshape returns a view-copy of t with a new shape of equal volume. One
// dimension may be -1, in which case it is inferred. The returned tensor
// shares no storage with t.
func (t *Tensor) Reshape(shape ...int) *Tensor {
	resolved := append([]int(nil), shape...)
	infer := -1
	vol := 1
	for i, d := range resolved {
		switch {
		case d == -1:
			if infer != -1 {
				panic("tensor: Reshape with more than one -1 dimension")
			}
			infer = i
		case d < 0:
			panic(fmt.Sprintf("tensor: Reshape negative dimension %d", d))
		default:
			vol *= d
		}
	}
	if infer != -1 {
		if vol == 0 || len(t.data)%vol != 0 {
			panic(fmt.Sprintf("tensor: cannot infer dimension reshaping %v to %v", t.shape, shape))
		}
		resolved[infer] = len(t.data) / vol
		vol *= resolved[infer]
	}
	if vol != len(t.data) {
		panic(fmt.Sprintf("tensor: Reshape volume mismatch %v to %v", t.shape, shape))
	}
	out := New(resolved...)
	copy(out.data, t.data)
	return out
}

// Zero sets every element of t to 0 in place.
func (t *Tensor) Zero() {
	for i := range t.data {
		t.data[i] = 0
	}
}

// Fill sets every element of t to v in place.
func (t *Tensor) Fill(v float64) {
	for i := range t.data {
		t.data[i] = v
	}
}

// String renders small tensors fully and large tensors as a summary.
func (t *Tensor) String() string {
	const maxElems = 32
	var b strings.Builder
	fmt.Fprintf(&b, "Tensor%v", t.shape)
	if len(t.data) <= maxElems {
		fmt.Fprintf(&b, "%v", t.data)
	} else {
		fmt.Fprintf(&b, "[%g %g … %g] (%d elems)", t.data[0], t.data[1], t.data[len(t.data)-1], len(t.data))
	}
	return b.String()
}

// Equal reports whether t and o have the same shape and elementwise values
// within tol.
func (t *Tensor) Equal(o *Tensor, tol float64) bool {
	if !t.SameShape(o) {
		return false
	}
	for i, v := range t.data {
		if math.Abs(v-o.data[i]) > tol {
			return false
		}
	}
	return true
}
