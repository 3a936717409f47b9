package nn

import (
	"fmt"
	"math"

	"github.com/stsl/stsl/internal/tensor"
)

// MaxPool2D is a max-pooling layer over NCHW input. It has no learnable
// parameters; Backward routes each output gradient to the input position
// that produced the maximum (ties go to the first scanned position, which
// matches the common framework convention). A window with no comparable
// maximum — every element NaN or −Inf — yields its first element, and its
// gradient routes there.
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
	oh := (in[1]-p.kernelH)/p.strideH + 1
	ow := (in[2]-p.kernelW)/p.strideW + 1
	if oh <= 0 || ow <= 0 {
		return nil, fmt.Errorf("nn: pool %s yields empty output for input %v", p.name, in)
	}
	return []int{in[0], oh, ow}, nil
}

// Forward implements Layer. Input must be (N, C, H, W).
func (p *MaxPool2D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if x.Dims() != 4 {
		panic(shapeErr(p.name, "(N,C,H,W)", x.Shape()))
	}
	n, c, h, w := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	oh := (h-p.kernelH)/p.strideH + 1
	ow := (w-p.kernelW)/p.strideW + 1
	if oh <= 0 || ow <= 0 {
		panic(fmt.Sprintf("nn: pool %s yields empty output for input %v", p.name, x.Shape()))
	}
	p.out = tensor.Reuse(p.out, n, c, oh, ow)
	if train {
		p.argmax = resize(p.argmax, p.out.Size())
	}
	p.inShape = [4]int{n, c, h, w}
	p.in, p.train = x, train
	tensor.ParallelFor(n, x.Size(), poolForward, p)
	p.in = nil
	p.armed = train
	return p.out
}

// poolForward pools images [lo,hi) of a MaxPool2D Forward. Each window
// keeps its first strict maximum, selected with a bit mask rather than a
// branch, starting from its first element's index against −Inf: NaN
// never compares greater, and a window where nothing beats −Inf yields
// its first element. The windows of an output row advance together, up
// to poolRun at a time, each taking its elements in row-major order.
func poolForward(ctx any, lo, hi int) {
	p := ctx.(*MaxPool2D)
	c, h, w := p.inShape[1], p.inShape[2], p.inShape[3]
	oh, ow := p.out.Dim(2), p.out.Dim(3)
	kh, kw, sh, sw := p.kernelH, p.kernelW, p.strideH, p.strideW
	src := p.in.Data()
	dst := p.out.Data()[lo*c*oh*ow : hi*c*oh*ow]
	var argmax []int
	if p.train {
		argmax = p.argmax[lo*c*oh*ow : hi*c*oh*ow]
	}
	var bests [poolRun]float64
	var idxs [poolRun]int
	di := 0
	for plane := lo * c * h * w; plane < hi*c*h*w; plane += h * w {
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox += poolRun {
				best, idx := bests[:min(poolRun, ow-ox)], idxs[:min(poolRun, ow-ox)]
				first := plane + oy*sh*w + ox*sw
				for j := range best {
					best[j], idx[j] = math.Inf(-1), first+j*sw
				}
				for row := first; row < first+kh*w; row += w {
					for at := row; at < row+kw; at++ {
						poolStep(best, idx, src, at, sw)
					}
				}
				for j, i := range idx {
					dst[di+j] = src[i]
				}
				if argmax != nil {
					copy(argmax[di:], idx)
				}
				di += len(idx)
			}
		}
	}
}

// poolStep offers window j of a run its element at + j·stride: the
// window keeps it, and its index, when it is strictly greater than the
// window's best so far.
func poolStep(best []float64, idx []int, src []float64, at, stride int) {
	idx = idx[:len(best)]
	for j, b := range best {
		v := src[at]
		m := -b2u(v > b)
		best[j] = math.Float64frombits(math.Float64bits(b)&^m | math.Float64bits(v)&m)
		idx[j] = idx[j]&^int(m) | at&int(m)
		at += stride
	}
}

// poolRun is how many windows of an output row poolForward advances
// together; their bests and indices live on its stack.
const poolRun = 64

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
	tensor.ParallelFor(p.inShape[0], p.dx.Size(), poolBackward, p)
	p.in = nil
	p.armed = false
	return p.dx
}

// poolBackward zeroes images [lo,hi) of a MaxPool2D's input gradient and
// routes their output gradients into them. Every argmax of an image lies
// in that image, so each image is summed in the serial order.
func poolBackward(ctx any, lo, hi int) {
	p := ctx.(*MaxPool2D)
	in := p.dx.Size() / p.inShape[0]
	out := len(p.argmax) / p.inShape[0]
	dst := p.dx.Data()
	clear(dst[lo*in : hi*in])
	for i, g := range p.in.Data()[lo*out : hi*out] {
		dst[p.argmax[lo*out+i]] += g
	}
}

var _ Layer = (*MaxPool2D)(nil)
