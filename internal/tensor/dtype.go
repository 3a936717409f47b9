package tensor

import "fmt"

// DType identifies the element precision a tensor carries on the wire
// — wire only: in-memory storage is always []float64 and every kernel
// computes in float64. A DType is the codec's *tag*: it is the dtype
// byte of the frame WriteTo emits and so the width of every element in
// it (float32 at half the bytes), and ReadFrom sets it from the frame
// it decoded.
//
// The zero value is Float64, so an untagged tensor encodes at full width.
type DType uint8

const (
	// Float64 is the default full-precision element type.
	Float64 DType = 0
	// Float32 is the half-bandwidth element type. Values round through
	// IEEE-754 single precision at every encode.
	Float32 DType = 1
)

// Size returns the wire size of one element in bytes.
func (d DType) Size() int {
	if d == Float32 {
		return 4
	}
	return 8
}

// String implements fmt.Stringer.
func (d DType) String() string {
	switch d {
	case Float64:
		return "float64"
	case Float32:
		return "float32"
	default:
		return fmt.Sprintf("DType(%d)", uint8(d))
	}
}

// ParseDType converts a config/flag string to a DType. The empty string
// is Float64, keeping "unset" backward compatible everywhere a dtype is
// plumbed through.
func ParseDType(s string) (DType, error) {
	switch s {
	case "", "float64", "f64":
		return Float64, nil
	case "float32", "f32":
		return Float32, nil
	default:
		return Float64, fmt.Errorf("tensor: unknown dtype %q (want float64 or float32)", s)
	}
}

// DType returns the tensor's precision tag.
func (t *Tensor) DType() DType { return t.dtype }

// SetDType tags the tensor with a wire precision and returns t. It does
// not touch the stored values: rounding to float32 happens at encode
// time, not here.
func (t *Tensor) SetDType(d DType) *Tensor {
	t.dtype = d
	return t
}
