package nn

import (
	"fmt"

	"github.com/stsl/stsl/internal/tensor"
)

// Flatten reshapes (N, d1, d2, …) into (N, d1*d2*…), remembering the input
// shape so Backward can restore it.
type Flatten struct {
	name    string
	inShape []int
	armed   bool
	out, dx *tensor.Tensor
}

// NewFlatten constructs a Flatten layer.
func NewFlatten(name string) *Flatten { return &Flatten{name: name} }

// Name implements Layer.
func (l *Flatten) Name() string { return l.name }

// Params implements Layer.
func (l *Flatten) Params() []*Param { return nil }

// OutShape implements Layer.
func (l *Flatten) OutShape(in []int) ([]int, error) {
	if len(in) == 0 {
		return nil, shapeErr(l.name, "non-scalar", in)
	}
	return []int{shapeVolume(in)}, nil
}

// Forward implements Layer. The output is a copy in the layer's own
// workspace, never a view of x.
func (l *Flatten) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if x.Dims() < 2 {
		panic(shapeErr(l.name, "(N,…)", x.Shape()))
	}
	l.inShape = l.inShape[:0]
	for i := 0; i < x.Dims(); i++ {
		l.inShape = append(l.inShape, x.Dim(i))
	}
	l.out = tensor.Reuse(l.out, x.Dim(0), shapeVolume(l.inShape[1:]))
	copy(l.out.Data(), x.Data())
	l.armed = train
	return l.out
}

// Backward implements Layer.
func (l *Flatten) Backward(grad *tensor.Tensor) *tensor.Tensor {
	if !l.armed {
		panic(fmt.Sprintf("nn: flatten %s Backward without training Forward", l.name))
	}
	if grad.Size() != shapeVolume(l.inShape) {
		panic(shapeErr(l.name, fmt.Sprintf("grad with %d elems", shapeVolume(l.inShape)), grad.Shape()))
	}
	l.dx = tensor.Reuse(l.dx, l.inShape...)
	copy(l.dx.Data(), grad.Data())
	l.armed = false
	return l.dx
}

var _ Layer = (*Flatten)(nil)
