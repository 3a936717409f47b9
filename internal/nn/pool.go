package nn

import (
	"fmt"

	"github.com/stsl/stsl/internal/tensor"
)

// MaxPool2D is a max-pooling layer over NCHW input. It has no learnable
// parameters; Backward routes each output gradient to the input position
// that produced the maximum (ties go to the first scanned position, which
// matches the common framework convention). A window with no comparable
// maximum — every element NaN or −Inf — yields its first element, and its
// gradient routes there. The kernels are tensor.MaxPoolPlanes and
// tensor.MaxPoolGradPlanes.
type MaxPool2D struct {
	name             string
	kernelH, kernelW int
	strideH, strideW int
	// argmax caches, per forward pass, the linear input index chosen for
	// each output element; armed says whether it belongs to a training
	// Forward that Backward may consume.
	argmax  []int
	armed   bool
	inShape [4]int
	out, dx *tensor.Tensor
	// in and train are the operands of the pass in progress, read by
	// its ranges: the input in Forward, the gradient in Backward.
	in    *tensor.Tensor
	train bool
}

// NewMaxPool2D constructs a pooling layer. A zero stride defaults to the
// kernel size (non-overlapping pooling), which is the paper's 2×2 usage.
func NewMaxPool2D(name string, kernelH, kernelW, strideH, strideW int) (*MaxPool2D, error) {
	if kernelH <= 0 || kernelW <= 0 {
		return nil, fmt.Errorf("nn: pool %q needs positive kernel, got %dx%d", name, kernelH, kernelW)
	}
	if strideH == 0 {
		strideH = kernelH
	}
	if strideW == 0 {
		strideW = kernelW
	}
	if strideH < 0 || strideW < 0 {
		return nil, fmt.Errorf("nn: pool %q has negative stride", name)
	}
	return &MaxPool2D{name: name, kernelH: kernelH, kernelW: kernelW, strideH: strideH, strideW: strideW}, nil
}

// Name implements Layer.
func (p *MaxPool2D) Name() string { return p.name }

// Params implements Layer.
func (p *MaxPool2D) Params() []*Param { return nil }

// OutShape implements Layer.
func (p *MaxPool2D) OutShape(in []int) ([]int, error) {
	if len(in) != 3 {
		return nil, shapeErr(p.name, "(C,H,W)", in)
	}
	if in[1] < p.kernelH || in[2] < p.kernelW {
		return nil, fmt.Errorf("nn: pool %s yields empty output for input %v", p.name, in)
	}
	return []int{in[0], (in[1]-p.kernelH)/p.strideH + 1, (in[2]-p.kernelW)/p.strideW + 1}, nil
}

// Forward implements Layer. Input must be (N, C, H, W).
func (p *MaxPool2D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if x.Dims() != 4 {
		panic(shapeErr(p.name, "(N,C,H,W)", x.Shape()))
	}
	n, c, h, w := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	if h < p.kernelH || w < p.kernelW {
		panic(fmt.Sprintf("nn: pool %s yields empty output for input %v", p.name, x.Shape()))
	}
	p.out = tensor.Reuse(p.out, n, c, (h-p.kernelH)/p.strideH+1, (w-p.kernelW)/p.strideW+1)
	if train {
		p.argmax = resize(p.argmax, p.out.Size())
	}
	p.inShape = [4]int{n, c, h, w}
	p.in, p.train = x, train
	// A window is the work unit, forward and backward: at GOMAXPROCS 2
	// the pool runs serial up to 2^16 windows (SmallScale's conv1 has
	// 32k), where a fan-out stopped losing (DESIGN.md §3.9).
	tensor.ParallelFor(n, p.out.Size(), poolForward, p)
	p.in = nil
	p.armed = train
	return p.out
}

// poolForward pools images [lo,hi) of a MaxPool2D Forward
// (tensor.MaxPoolPlanes): each window keeps its first strict maximum,
// or its first element when nothing beats −Inf.
func poolForward(ctx any, lo, hi int) {
	p := ctx.(*MaxPool2D)
	c, h, w := p.inShape[1], p.inShape[2], p.inShape[3]
	var argmax []int
	if p.train {
		argmax = p.argmax
	}
	tensor.MaxPoolPlanes(p.out.Data(), argmax, p.in.Data(), lo*c, hi*c, h, w, p.kernelH, p.kernelW, p.strideH, p.strideW)
}

// Backward implements Layer.
func (p *MaxPool2D) Backward(grad *tensor.Tensor) *tensor.Tensor {
	if !p.armed {
		panic(fmt.Sprintf("nn: pool %s Backward without training Forward", p.name))
	}
	if grad.Size() != len(p.argmax) {
		panic(shapeErr(p.name, fmt.Sprintf("grad with %d elems", len(p.argmax)), grad.Shape()))
	}
	p.dx = tensor.Reuse(p.dx, p.inShape[:]...)
	p.in = grad
	tensor.ParallelFor(p.inShape[0], grad.Size(), poolBackward, p)
	p.in = nil
	p.armed = false
	return p.dx
}

// poolBackward writes images [lo,hi) of a MaxPool2D's input gradient
// (tensor.MaxPoolGradPlanes). Every argmax of an image lies in that
// image, so each image is summed in the serial order.
func poolBackward(ctx any, lo, hi int) {
	p := ctx.(*MaxPool2D)
	c, h, w := p.inShape[1], p.inShape[2], p.inShape[3]
	tensor.MaxPoolGradPlanes(p.dx.Data(), p.in.Data(), p.argmax, lo*c, hi*c, h, w, p.kernelH, p.kernelW, p.strideH, p.strideW)
}

var _ Layer = (*MaxPool2D)(nil)
