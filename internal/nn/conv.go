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
	// Forward cache for Backward.
	cachedCols *tensor.Tensor
	cachedN    int
	cachedGeom tensor.ConvGeom
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
	shape := x.Shape()
	if len(shape) != 4 || shape[1] != c.inC {
		panic(shapeErr(c.name, fmt.Sprintf("(N,%d,H,W)", c.inC), shape))
	}
	n := shape[0]
	g, err := c.geom(shape[2], shape[3])
	if err != nil {
		panic(err)
	}
	cols := tensor.Im2Col(x, g) // (N*oh*ow, inC*kh*kw)
	// (N*oh*ow, outC) = cols · Wᵀ. The parallel kernel is bitwise equal
	// to the serial one, so determinism guarantees are unaffected.
	mat := tensor.MatMulTransBP(cols, c.weight.Value)
	mat.AddRowVector(c.bias.Value)

	if train {
		c.cachedCols = cols
		c.cachedN = n
		c.cachedGeom = g
	} else {
		c.cachedCols = nil
	}
	return nhwcMatToNCHW(mat, n, c.outC, g.OutHeight(), g.OutWidth())
}

// Backward implements Layer.
func (c *Conv2D) Backward(grad *tensor.Tensor) *tensor.Tensor {
	if c.cachedCols == nil {
		panic(fmt.Sprintf("nn: conv %s Backward without training Forward", c.name))
	}
	g := c.cachedGeom
	n := c.cachedN
	oh, ow := g.OutHeight(), g.OutWidth()
	gm := grad.Shape()
	if len(gm) != 4 || gm[0] != n || gm[1] != c.outC || gm[2] != oh || gm[3] != ow {
		panic(shapeErr(c.name, fmt.Sprintf("grad (N,%d,%d,%d)", c.outC, oh, ow), gm))
	}
	dmat := nchwToNHWCMat(grad) // (N*oh*ow, outC)
	// dW (outC, K) += dmatᵀ · cols
	c.weight.Grad.AddInPlace(tensor.MatMulTransA(dmat, c.cachedCols))
	// db += column sums of dmat
	c.bias.Grad.AddInPlace(dmat.SumRows())
	// dcols (R, K) = dmat · W
	dcols := tensor.MatMul(dmat, c.weight.Value)
	dx := tensor.Col2Im(dcols, n, g)
	c.cachedCols = nil
	return dx
}

// nhwcMatToNCHW repacks an (N*H*W, C) matrix whose rows are ordered
// (n, y, x) into an (N, C, H, W) tensor.
func nhwcMatToNCHW(mat *tensor.Tensor, n, cCh, h, w int) *tensor.Tensor {
	out := tensor.New(n, cCh, h, w)
	src := mat.Data()
	dst := out.Data()
	hw := h * w
	for img := 0; img < n; img++ {
		for pos := 0; pos < hw; pos++ {
			row := src[(img*hw+pos)*cCh:][:cCh]
			base := img * cCh * hw
			for ch, v := range row {
				dst[base+ch*hw+pos] = v
			}
		}
	}
	return out
}

// nchwToNHWCMat is the inverse repack of nhwcMatToNCHW: (N, C, H, W) →
// (N*H*W, C).
func nchwToNHWCMat(t *tensor.Tensor) *tensor.Tensor {
	s := t.Shape()
	n, cCh, h, w := s[0], s[1], s[2], s[3]
	hw := h * w
	out := tensor.New(n*hw, cCh)
	src := t.Data()
	dst := out.Data()
	for img := 0; img < n; img++ {
		base := img * cCh * hw
		for ch := 0; ch < cCh; ch++ {
			plane := src[base+ch*hw:][:hw]
			for pos, v := range plane {
				dst[(img*hw+pos)*cCh+ch] = v
			}
		}
	}
	return out
}

var _ Layer = (*Conv2D)(nil)
