package nn

import (
	"fmt"

	"github.com/stsl/stsl/internal/mathx"
	"github.com/stsl/stsl/internal/tensor"
)

// Dropout zeroes each element independently with probability p during
// training and scales survivors by 1/(1-p) ("inverted dropout"), so
// inference is a no-op.
type Dropout struct {
	name string
	p    float64
	rng  *mathx.RNG
	// mask holds the last training Forward's per-element scale; masked
	// says whether Backward applies it (false: identity gradient).
	mask    []float64
	masked  bool
	out, dx *tensor.Tensor
}

// NewDropout constructs a dropout layer with drop probability p ∈ [0, 1).
func NewDropout(name string, p float64, r *mathx.RNG) (*Dropout, error) {
	if p < 0 || p >= 1 {
		return nil, fmt.Errorf("nn: dropout %q probability %v out of [0,1)", name, p)
	}
	if r == nil {
		return nil, fmt.Errorf("nn: dropout %q needs an RNG", name)
	}
	return &Dropout{name: name, p: p, rng: r}, nil
}

// Name implements Layer.
func (l *Dropout) Name() string { return l.name }

// Params implements Layer.
func (l *Dropout) Params() []*Param { return nil }

// OutShape implements Layer.
func (l *Dropout) OutShape(in []int) ([]int, error) {
	return append([]int(nil), in...), nil
}

// Forward implements Layer.
func (l *Dropout) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	l.out = x.CloneInto(l.out)
	l.masked = train && l.p != 0
	if !l.masked {
		return l.out
	}
	keep := 1 - l.p
	scale := 1 / keep
	l.mask = resize(l.mask, x.Size())
	data := l.out.Data()
	for i := range data {
		if l.rng.Float64() < keep {
			l.mask[i] = scale
			data[i] *= scale
		} else {
			l.mask[i] = 0
			data[i] = 0
		}
	}
	return l.out
}

// Backward implements Layer.
func (l *Dropout) Backward(grad *tensor.Tensor) *tensor.Tensor {
	l.dx = grad.CloneInto(l.dx)
	if !l.masked {
		// Forward ran in eval mode or with p=0: identity gradient.
		return l.dx
	}
	if grad.Size() != len(l.mask) {
		panic(shapeErr(l.name, fmt.Sprintf("grad with %d elems", len(l.mask)), grad.Shape()))
	}
	data := l.dx.Data()
	for i, m := range l.mask {
		data[i] *= m
	}
	l.masked = false
	return l.dx
}

var _ Layer = (*Dropout)(nil)
