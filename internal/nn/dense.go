package nn

import (
	"fmt"

	"github.com/stsl/stsl/internal/mathx"
	"github.com/stsl/stsl/internal/tensor"
)

// Dense is a fully connected layer: out = x·W + b for x of shape (N, in),
// W of shape (in, out), b of shape (out).
type Dense struct {
	name    string
	in, out int
	weight  *Param
	bias    *Param
	params  []*Param
	cachedX *tensor.Tensor
}

// NewDense constructs a fully connected layer initialised from r; init
// defaults to XavierUniform.
func NewDense(name string, in, out int, init Initializer, r *mathx.RNG) (*Dense, error) {
	if in <= 0 || out <= 0 {
		return nil, fmt.Errorf("nn: dense %q needs positive dims, got in=%d out=%d", name, in, out)
	}
	if init == nil {
		init = XavierUniform()
	}
	d := &Dense{name: name, in: in, out: out}
	d.weight = NewParam(name+"/weight", init(r, in, out, in, out))
	d.bias = NewParam(name+"/bias", tensor.New(out))
	d.params = []*Param{d.weight, d.bias}
	return d, nil
}

// Name implements Layer.
func (d *Dense) Name() string { return d.name }

// Params implements Layer.
func (d *Dense) Params() []*Param { return d.params }

// OutShape implements Layer.
func (d *Dense) OutShape(in []int) ([]int, error) {
	if len(in) != 1 || in[0] != d.in {
		return nil, shapeErr(d.name, fmt.Sprintf("(%d)", d.in), in)
	}
	return []int{d.out}, nil
}

// Forward implements Layer. Input must be (N, in).
func (d *Dense) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	s := x.Shape()
	if len(s) != 2 || s[1] != d.in {
		panic(shapeErr(d.name, fmt.Sprintf("(N,%d)", d.in), s))
	}
	out := tensor.MatMul(x, d.weight.Value)
	out.AddRowVector(d.bias.Value)
	if train {
		d.cachedX = x
	} else {
		d.cachedX = nil
	}
	return out
}

// Backward implements Layer.
func (d *Dense) Backward(grad *tensor.Tensor) *tensor.Tensor {
	if d.cachedX == nil {
		panic(fmt.Sprintf("nn: dense %s Backward without training Forward", d.name))
	}
	s := grad.Shape()
	if len(s) != 2 || s[1] != d.out || s[0] != d.cachedX.Dim(0) {
		panic(shapeErr(d.name, fmt.Sprintf("grad (N,%d)", d.out), s))
	}
	d.weight.Grad.AddInPlace(tensor.MatMulTransA(d.cachedX, grad))
	d.bias.Grad.AddInPlace(grad.SumRows())
	dx := tensor.MatMulTransB(grad, d.weight.Value)
	d.cachedX = nil
	return dx
}

var _ Layer = (*Dense)(nil)
