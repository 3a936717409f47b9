package nn

import (
	"fmt"
	"math"

	"github.com/stsl/stsl/internal/tensor"
)

// ReLU applies max(0, x) elementwise. It works on tensors of any rank.
type ReLU struct {
	name string
	// mask records which inputs of the last training Forward were
	// positive; armed says whether it belongs to a Backward-able pass.
	mask    []bool
	armed   bool
	out, dx *tensor.Tensor
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
	l.out = x.CloneInto(l.out)
	if train {
		l.mask = resize(l.mask, l.out.Size())
	}
	data := l.out.Data()
	for i, v := range data {
		pos := v > 0
		if !pos {
			data[i] = 0
		}
		if train {
			l.mask[i] = pos
		}
	}
	l.armed = train
	return l.out
}

// Backward implements Layer.
func (l *ReLU) Backward(grad *tensor.Tensor) *tensor.Tensor {
	if !l.armed {
		panic(fmt.Sprintf("nn: relu %s Backward without training Forward", l.name))
	}
	if grad.Size() != len(l.mask) {
		panic(shapeErr(l.name, fmt.Sprintf("grad with %d elems", len(l.mask)), grad.Shape()))
	}
	l.dx = grad.CloneInto(l.dx)
	data := l.dx.Data()
	for i := range data {
		if !l.mask[i] {
			data[i] = 0
		}
	}
	l.armed = false
	return l.dx
}

// Tanh applies the hyperbolic tangent elementwise. It is provided for
// completeness: no network the repository builds uses it (the privacy
// module's reconstruction decoder is Dense+ReLU+Dense). Unlike the layers
// BuildPaperCNN emits it allocates its output on every call.
type Tanh struct {
	name   string
	cached *tensor.Tensor
}

// NewTanh constructs a Tanh activation layer.
func NewTanh(name string) *Tanh { return &Tanh{name: name} }

// Name implements Layer.
func (l *Tanh) Name() string { return l.name }

// Params implements Layer.
func (l *Tanh) Params() []*Param { return nil }

// OutShape implements Layer.
func (l *Tanh) OutShape(in []int) ([]int, error) {
	return append([]int(nil), in...), nil
}

// Forward implements Layer.
func (l *Tanh) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	out := x.Apply(math.Tanh)
	if train {
		l.cached = out
	} else {
		l.cached = nil
	}
	return out
}

// Backward implements Layer.
func (l *Tanh) Backward(grad *tensor.Tensor) *tensor.Tensor {
	if l.cached == nil {
		panic(fmt.Sprintf("nn: tanh %s Backward without training Forward", l.name))
	}
	dx := grad.Clone()
	data := dx.Data()
	y := l.cached.Data()
	for i := range data {
		data[i] *= 1 - y[i]*y[i]
	}
	l.cached = nil
	return dx
}

var (
	_ Layer = (*ReLU)(nil)
	_ Layer = (*Tanh)(nil)
)
