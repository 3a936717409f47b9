package nn

import (
	"fmt"

	"github.com/stsl/stsl/internal/mathx"
	"github.com/stsl/stsl/internal/tensor"
)

// Conv2D is a 2-D convolution layer over NCHW input, lowered per image
// from a padded copy of the input to a product of the filters with a
// channel-major matrix (see tensor.Conv2DInto). Weights have shape
// (outChannels, inChannels*kH*kW) — each output channel's kernel
// flattened to one row — and the bias has shape (outChannels).
type Conv2D struct {
	name             string
	inC, outC        int
	kernelH, kernelW int
	strideH, strideW int
	padH, padW       int
	weight, bias     *Param
	params           []*Param
	// Forward cache for Backward: armed says Backward may consume
	// work.Padded, the padded input of the last training Forward.
	armed      bool
	cachedGeom tensor.ConvGeom
	// Workspaces (see the Layer ownership rule).
	work    tensor.ConvWork
	out, dx *tensor.Tensor
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
	g, err := c.geom(x.Dim(2), x.Dim(3))
	if err != nil {
		panic(err)
	}
	c.out = tensor.Conv2DInto(c.out, &c.work, x, c.weight.Value, c.bias.Value, g)
	c.armed = train
	c.cachedGeom = g
	return c.out
}

// Backward implements Layer.
func (c *Conv2D) Backward(grad *tensor.Tensor) *tensor.Tensor {
	c.backwardParams(grad)
	c.dx = tensor.Conv2DInputGradInto(c.dx, &c.work, grad, c.weight.Value, c.cachedGeom)
	return c.dx
}

// backwardParams is Backward without the input gradient: it accumulates
// the weight and bias gradients and leaves dx alone.
func (c *Conv2D) backwardParams(grad *tensor.Tensor) {
	if !c.armed {
		panic(fmt.Sprintf("nn: conv %s Backward without training Forward", c.name))
	}
	n := c.out.Dim(0)
	oh, ow := c.cachedGeom.OutHeight(), c.cachedGeom.OutWidth()
	if grad.Dims() != 4 || grad.Dim(0) != n || grad.Dim(1) != c.outC || grad.Dim(2) != oh || grad.Dim(3) != ow {
		panic(shapeErr(c.name, fmt.Sprintf("grad (N,%d,%d,%d)", c.outC, oh, ow), grad.Shape()))
	}
	tensor.AddConv2DParamGrads(c.weight.Grad, c.bias.Grad, grad, &c.work, c.cachedGeom)
	c.armed = false
}

// dropScratch frees the lowering scratch, and the padded input unless a
// pending Backward reads it.
func (c *Conv2D) dropScratch() {
	c.work.Scratch = nil
	if !c.armed {
		c.work.Padded = nil
	}
}

var _ Layer = (*Conv2D)(nil)
