package nn

import (
	"fmt"

	"github.com/stsl/stsl/internal/mathx"
	"github.com/stsl/stsl/internal/tensor"
)

// Conv2D is a 2-D convolution layer over NCHW input, lowered to matrix
// multiplication with im2col. Weights have shape (outChannels,
// inChannels*kH*kW) — each output channel's kernel flattened to one row —
// and the bias has shape (outChannels).
type Conv2D struct {
	name             string
	inC, outC        int
	kernelH, kernelW int
	strideH, strideW int
	padH, padW       int
	weight, bias     *Param
	params           []*Param
	// Forward cache for Backward: armed says Backward may consume cols,
	// the im2col matrix of the last training Forward.
	armed      bool
	cachedN    int
	cachedGeom tensor.ConvGeom
	// Workspaces (see the Layer ownership rule). Backward overwrites cols
	// with the column gradient; mat holds the matmul result in Forward and
	// the repacked output gradient in Backward.
	cols, mat, out, dw, db, dx *tensor.Tensor
	// grad is the output gradient of the Backward in progress, read by
	// its repack's ranges.
	grad *tensor.Tensor
}

// Conv2DConfig collects the constructor arguments for NewConv2D. Zero
// stride defaults to 1; padding defaults to "same" for odd kernels when
// SamePad is set.
type Conv2DConfig struct {
	Name             string
	In, Out          int // channel counts
	KernelH, KernelW int
	StrideH, StrideW int
	PadH, PadW       int
	SamePad          bool
	Init             Initializer // defaults to HeNormal
}

// NewConv2D constructs a convolution layer and initialises its weights
// from r.
func NewConv2D(cfg Conv2DConfig, r *mathx.RNG) (*Conv2D, error) {
	if cfg.In <= 0 || cfg.Out <= 0 {
		return nil, fmt.Errorf("nn: conv %q needs positive channel counts, got in=%d out=%d", cfg.Name, cfg.In, cfg.Out)
	}
	if cfg.KernelH <= 0 || cfg.KernelW <= 0 {
		return nil, fmt.Errorf("nn: conv %q needs positive kernel, got %dx%d", cfg.Name, cfg.KernelH, cfg.KernelW)
	}
	if cfg.StrideH == 0 {
		cfg.StrideH = 1
	}
	if cfg.StrideW == 0 {
		cfg.StrideW = 1
	}
	if cfg.StrideH < 0 || cfg.StrideW < 0 {
		return nil, fmt.Errorf("nn: conv %q has negative stride", cfg.Name)
	}
	if cfg.SamePad {
		if cfg.KernelH%2 == 0 || cfg.KernelW%2 == 0 {
			return nil, fmt.Errorf("nn: conv %q SamePad requires odd kernel, got %dx%d", cfg.Name, cfg.KernelH, cfg.KernelW)
		}
		cfg.PadH, cfg.PadW = cfg.KernelH/2, cfg.KernelW/2
	}
	if cfg.PadH < 0 || cfg.PadW < 0 {
		return nil, fmt.Errorf("nn: conv %q has negative padding", cfg.Name)
	}
	init := cfg.Init
	if init == nil {
		init = HeNormal()
	}
	fanIn := cfg.In * cfg.KernelH * cfg.KernelW
	fanOut := cfg.Out * cfg.KernelH * cfg.KernelW
	c := &Conv2D{
		name:    cfg.Name,
		inC:     cfg.In,
		outC:    cfg.Out,
		kernelH: cfg.KernelH, kernelW: cfg.KernelW,
		strideH: cfg.StrideH, strideW: cfg.StrideW,
		padH: cfg.PadH, padW: cfg.PadW,
	}
	c.weight = NewParam(cfg.Name+"/weight", init(r, fanIn, fanOut, cfg.Out, fanIn))
	c.bias = NewParam(cfg.Name+"/bias", tensor.New(cfg.Out))
	c.params = []*Param{c.weight, c.bias}
	return c, nil
}

// Name implements Layer.
func (c *Conv2D) Name() string { return c.name }

// Params implements Layer.
func (c *Conv2D) Params() []*Param { return c.params }

// OutShape implements Layer.
func (c *Conv2D) OutShape(in []int) ([]int, error) {
	if len(in) != 3 {
		return nil, shapeErr(c.name, "(C,H,W)", in)
	}
	g, err := c.geom(in[1], in[2])
	if err != nil {
		return nil, err
	}
	if in[0] != c.inC {
		return nil, fmt.Errorf("nn: conv %s expects %d input channels, got %d", c.name, c.inC, in[0])
	}
	return []int{c.outC, g.OutHeight(), g.OutWidth()}, nil
}

func (c *Conv2D) geom(h, w int) (tensor.ConvGeom, error) {
	g := tensor.ConvGeom{
		Channels: c.inC, Height: h, Width: w,
		KernelH: c.kernelH, KernelW: c.kernelW,
		StrideH: c.strideH, StrideW: c.strideW,
		PadH: c.padH, PadW: c.padW,
	}
	if err := g.Validate(); err != nil {
		return g, fmt.Errorf("nn: conv %s: %w", c.name, err)
	}
	return g, nil
}

// Forward implements Layer. Input must be (N, inC, H, W).
func (c *Conv2D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if x.Dims() != 4 || x.Dim(1) != c.inC {
		panic(shapeErr(c.name, fmt.Sprintf("(N,%d,H,W)", c.inC), x.Shape()))
	}
	n := x.Dim(0)
	g, err := c.geom(x.Dim(2), x.Dim(3))
	if err != nil {
		panic(err)
	}
	c.cols = tensor.Im2ColInto(c.cols, x, g) // (N*oh*ow, inC*kh*kw)
	// (N*oh*ow, outC) = cols · Wᵀ
	c.mat = tensor.MatMulTransBInto(c.mat, c.cols, c.weight.Value)
	c.mat.AddRowVector(c.bias.Value)
	c.out = tensor.Reuse(c.out, n, c.outC, g.OutHeight(), g.OutWidth())
	tensor.ParallelFor(n, c.out.Size(), convToNCHW, c)

	c.armed = train
	c.cachedN = n
	c.cachedGeom = g
	return c.out
}

// Backward implements Layer.
func (c *Conv2D) Backward(grad *tensor.Tensor) *tensor.Tensor {
	c.backwardParams(grad)
	// dcols (R, K) = dmat · W, written over cols once dW has read it.
	dcols := tensor.MatMulInto(c.cols, c.mat, c.weight.Value)
	c.dx = tensor.Col2ImInto(c.dx, dcols, c.cachedN, c.cachedGeom)
	return c.dx
}

// backwardParams is Backward without the input gradient: it accumulates
// the weight and bias gradients and leaves cols and dx alone.
func (c *Conv2D) backwardParams(grad *tensor.Tensor) {
	if !c.armed {
		panic(fmt.Sprintf("nn: conv %s Backward without training Forward", c.name))
	}
	g := c.cachedGeom
	n := c.cachedN
	oh, ow := g.OutHeight(), g.OutWidth()
	if grad.Dims() != 4 || grad.Dim(0) != n || grad.Dim(1) != c.outC || grad.Dim(2) != oh || grad.Dim(3) != ow {
		panic(shapeErr(c.name, fmt.Sprintf("grad (N,%d,%d,%d)", c.outC, oh, ow), grad.Shape()))
	}
	c.mat = tensor.Reuse(c.mat, n*oh*ow, c.outC) // dmat (N*oh*ow, outC)
	c.grad = grad
	tensor.ParallelFor(n, grad.Size(), convFromNCHW, c)
	c.grad = nil
	// dW (outC, K) += dmatᵀ · cols
	c.dw = tensor.MatMulTransAInto(c.dw, c.mat, c.cols)
	c.weight.Grad.AddInPlace(c.dw)
	// db += column sums of dmat
	c.db = tensor.SumRowsInto(c.db, c.mat)
	c.bias.Grad.AddInPlace(c.db)
	c.armed = false
}

// dropScratch frees mat, and cols unless a pending Backward reads it.
func (c *Conv2D) dropScratch() {
	c.mat = nil
	if !c.armed {
		c.cols = nil
	}
}

// convToNCHW repacks images [lo,hi) of the forward matmul result mat,
// an (N*H*W, C) matrix whose rows are ordered (n, y, x), into out, an
// (N, C, H, W) tensor, overwriting every element.
func convToNCHW(ctx any, lo, hi int) {
	c := ctx.(*Conv2D)
	cCh, hw := c.out.Dim(1), c.out.Dim(2)*c.out.Dim(3)
	src, out := c.mat.Data(), c.out.Data()
	for img := lo; img < hi; img++ {
		base := img * cCh * hw
		for pos := 0; pos < hw; pos++ {
			row := src[(img*hw+pos)*cCh:][:cCh]
			for ch, v := range row {
				out[base+ch*hw+pos] = v
			}
		}
	}
}

// convFromNCHW is the inverse repack of convToNCHW, from the output
// gradient grad (N, C, H, W) into mat (N*H*W, C), for images [lo,hi).
func convFromNCHW(ctx any, lo, hi int) {
	c := ctx.(*Conv2D)
	cCh, hw := c.grad.Dim(1), c.grad.Dim(2)*c.grad.Dim(3)
	src, out := c.grad.Data(), c.mat.Data()
	for img := lo; img < hi; img++ {
		base := img * cCh * hw
		for ch := 0; ch < cCh; ch++ {
			plane := src[base+ch*hw:][:hw]
			for pos, v := range plane {
				out[(img*hw+pos)*cCh+ch] = v
			}
		}
	}
}

var _ Layer = (*Conv2D)(nil)
