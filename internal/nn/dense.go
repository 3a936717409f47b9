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
	// cachedX is the last training Forward's input, which Backward reads;
	// under the ownership rule its producer keeps it intact until then.
	cachedX *tensor.Tensor
	// Workspaces (see the Layer ownership rule).
	y, dw, db, dx *tensor.Tensor
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
	if x.Dims() != 2 || x.Dim(1) != d.in {
		panic(shapeErr(d.name, fmt.Sprintf("(N,%d)", d.in), x.Shape()))
	}
	d.y = tensor.MatMulInto(d.y, x, d.weight.Value)
	d.y.AddRowVector(d.bias.Value)
	if train {
		d.cachedX = x
	} else {
		d.cachedX = nil
	}
	return d.y
}

// Backward implements Layer.
func (d *Dense) Backward(grad *tensor.Tensor) *tensor.Tensor {
	if d.cachedX == nil {
		panic(fmt.Sprintf("nn: dense %s Backward without training Forward", d.name))
	}
	if grad.Dims() != 2 || grad.Dim(1) != d.out || grad.Dim(0) != d.cachedX.Dim(0) {
		panic(shapeErr(d.name, fmt.Sprintf("grad (N,%d)", d.out), grad.Shape()))
	}
	d.dw = tensor.MatMulTransAInto(d.dw, d.cachedX, grad)
	d.weight.Grad.AddInPlace(d.dw)
	d.db = tensor.SumRowsInto(d.db, grad)
	d.bias.Grad.AddInPlace(d.db)
	d.dx = tensor.MatMulTransBInto(d.dx, grad, d.weight.Value)
	d.cachedX = nil
	return d.dx
}

var _ Layer = (*Dense)(nil)
