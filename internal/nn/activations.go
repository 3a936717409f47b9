package nn

import (
	"fmt"
	"math"

	"github.com/stsl/stsl/internal/tensor"
)

// ReLU applies max(0, x) elementwise. It works on tensors of any rank.
// Large tensors are split over elements (see tensor.ParallelFor).
type ReLU struct {
	name string
	// mask records which inputs of the last training Forward were
	// positive; armed says whether it belongs to a Backward-able pass.
	mask    []bool
	armed   bool
	out, dx *tensor.Tensor
	// in and train are the operands of the pass in progress, read by
	// its ranges.
	in    *tensor.Tensor
	train bool
}

// NewReLU constructs a ReLU activation layer.
func NewReLU(name string) *ReLU { return &ReLU{name: name} }

// Name implements Layer.
func (l *ReLU) Name() string { return l.name }

// Params implements Layer.
func (l *ReLU) Params() []*Param { return nil }

// OutShape implements Layer.
func (l *ReLU) OutShape(in []int) ([]int, error) {
	return append([]int(nil), in...), nil
}

// Forward implements Layer.
func (l *ReLU) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	l.out = reuseLike(l.out, x)
	if train {
		l.mask = resize(l.mask, x.Size())
	}
	l.in, l.train = x, train
	// An element is the work unit, forward and backward: at GOMAXPROCS 2
	// a fan-out lost below 2^16 elements and won above (DESIGN.md §3.9).
	tensor.ParallelFor(x.Size(), x.Size(), reluForward, l)
	l.in = nil
	l.armed = train
	return l.out
}

// reluForward computes elements [lo,hi) of a ReLU Forward without a
// branch on the sign: an element keeps its bits when 0 < v ≤ +Inf and
// becomes +0 otherwise, NaN and −0 included.
func reluForward(ctx any, lo, hi int) {
	l := ctx.(*ReLU)
	src, dst := l.in.Data()[lo:hi], l.out.Data()[lo:hi]
	dst = dst[:len(src)]
	if !l.train {
		for i, v := range src {
			dst[i] = math.Float64frombits(reluBits(v))
		}
		return
	}
	mask := l.mask[lo:hi][:len(src)]
	for i, v := range src {
		b := reluBits(v)
		dst[i] = math.Float64frombits(b)
		mask[i] = b != 0
	}
}

// reluBits returns the bits of v when 0 < v ≤ +Inf and 0 otherwise. The
// sign bit of s, of s−1 (set only for s = 0) and of +Inf−s (set only for
// a positive NaN) are each set exactly when v must become +0.
func reluBits(v float64) uint64 {
	s := int64(math.Float64bits(v))
	const posInf = 0x7ff0000000000000
	keep := ^((s | (s - 1) | (posInf - s)) >> 63)
	return uint64(s & keep)
}

// Backward implements Layer.
func (l *ReLU) Backward(grad *tensor.Tensor) *tensor.Tensor {
	if !l.armed {
		panic(fmt.Sprintf("nn: relu %s Backward without training Forward", l.name))
	}
	if grad.Size() != len(l.mask) {
		panic(shapeErr(l.name, fmt.Sprintf("grad with %d elems", len(l.mask)), grad.Shape()))
	}
	l.dx = reuseLike(l.dx, grad)
	l.in = grad
	tensor.ParallelFor(grad.Size(), grad.Size(), reluBackward, l)
	l.in = nil
	l.armed = false
	return l.dx
}

// reluBackward computes elements [lo,hi) of a ReLU Backward, selecting
// each gradient or +0 with a bit mask.
func reluBackward(ctx any, lo, hi int) {
	l := ctx.(*ReLU)
	src, dst, mask := l.in.Data()[lo:hi], l.dx.Data()[lo:hi], l.mask[lo:hi]
	dst, mask = dst[:len(src)], mask[:len(src)]
	for i, g := range src {
		dst[i] = math.Float64frombits(math.Float64bits(g) & -b2u(mask[i]))
	}
}

// b2u returns 1 for true and 0 for false. The compiler emits a SETcc or
// a zero extension for it, not a branch, so -b2u(b) is a bit mask.
func b2u(b bool) uint64 {
	var u uint64
	if b {
		u = 1
	}
	return u
}

var _ Layer = (*ReLU)(nil)
