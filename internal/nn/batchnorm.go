package nn

import (
	"fmt"
	"math"

	"github.com/stsl/stsl/internal/tensor"
)

// BatchNorm2D normalises each channel of NCHW input over the batch and
// spatial dimensions, then applies a learnable per-channel affine
// transform. Running statistics accumulated during training are used at
// inference. It is an optional extension layer (the paper's Fig-3 CNN does
// not use it) exercised by the ablation benchmarks.
type BatchNorm2D struct {
	name     string
	channels int
	eps      float64
	momentum float64

	gamma, beta     *Param
	runMean, runVar *tensor.Tensor
	params          []*Param
	// Forward cache: x̂ and σ of the last training Forward, valid for
	// Backward while armed is set.
	xhat    *tensor.Tensor
	std     []float64
	cachedN int
	armed   bool
	out, dx *tensor.Tensor
}

// NewBatchNorm2D constructs a batch-normalisation layer for the given
// channel count.
func NewBatchNorm2D(name string, channels int) (*BatchNorm2D, error) {
	if channels <= 0 {
		return nil, fmt.Errorf("nn: batchnorm %q needs positive channels, got %d", name, channels)
	}
	b := &BatchNorm2D{
		name:     name,
		channels: channels,
		eps:      1e-5,
		momentum: 0.9,
		runMean:  tensor.New(channels),
		runVar:   tensor.Full(1, channels),
		std:      make([]float64, channels),
	}
	b.gamma = NewParam(name+"/gamma", tensor.Full(1, channels))
	b.beta = NewParam(name+"/beta", tensor.New(channels))
	b.params = []*Param{b.gamma, b.beta}
	return b, nil
}

// Name implements Layer.
func (b *BatchNorm2D) Name() string { return b.name }

// Params implements Layer.
func (b *BatchNorm2D) Params() []*Param { return b.params }

// OutShape implements Layer.
func (b *BatchNorm2D) OutShape(in []int) ([]int, error) {
	if len(in) != 3 || in[0] != b.channels {
		return nil, shapeErr(b.name, fmt.Sprintf("(%d,H,W)", b.channels), in)
	}
	return append([]int(nil), in...), nil
}

// Forward implements Layer.
func (b *BatchNorm2D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if x.Dims() != 4 || x.Dim(1) != b.channels {
		panic(shapeErr(b.name, fmt.Sprintf("(N,%d,H,W)", b.channels), x.Shape()))
	}
	n, c, h, w := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	count := n * h * w
	b.out = tensor.Reuse(b.out, n, c, h, w)
	src, dst := x.Data(), b.out.Data()
	gd, bd := b.gamma.Value.Data(), b.beta.Value.Data()

	if !train {
		rm, rv := b.runMean.Data(), b.runVar.Data()
		for ch := 0; ch < c; ch++ {
			inv := 1 / math.Sqrt(rv[ch]+b.eps)
			g, bt, m := gd[ch], bd[ch], rm[ch]
			for img := 0; img < n; img++ {
				base := (img*c + ch) * h * w
				for i := 0; i < h*w; i++ {
					dst[base+i] = g*(src[base+i]-m)*inv + bt
				}
			}
		}
		b.armed = false
		return b.out
	}

	b.xhat = tensor.Reuse(b.xhat, n, c, h, w)
	xh := b.xhat.Data()
	std := b.std
	rm, rv := b.runMean.Data(), b.runVar.Data()
	for ch := 0; ch < c; ch++ {
		// Batch statistics over (N, H, W) for this channel.
		sum := 0.0
		for img := 0; img < n; img++ {
			base := (img*c + ch) * h * w
			for i := 0; i < h*w; i++ {
				sum += src[base+i]
			}
		}
		mean := sum / float64(count)
		varSum := 0.0
		for img := 0; img < n; img++ {
			base := (img*c + ch) * h * w
			for i := 0; i < h*w; i++ {
				d := src[base+i] - mean
				varSum += d * d
			}
		}
		variance := varSum / float64(count)
		std[ch] = math.Sqrt(variance + b.eps)
		inv := 1 / std[ch]
		g, bt := gd[ch], bd[ch]
		for img := 0; img < n; img++ {
			base := (img*c + ch) * h * w
			for i := 0; i < h*w; i++ {
				v := (src[base+i] - mean) * inv
				xh[base+i] = v
				dst[base+i] = g*v + bt
			}
		}
		rm[ch] = b.momentum*rm[ch] + (1-b.momentum)*mean
		rv[ch] = b.momentum*rv[ch] + (1-b.momentum)*variance
	}
	b.cachedN = count
	b.armed = true
	return b.out
}

// Backward implements Layer using the standard batch-norm gradient.
func (b *BatchNorm2D) Backward(grad *tensor.Tensor) *tensor.Tensor {
	if !b.armed {
		panic(fmt.Sprintf("nn: batchnorm %s Backward without training Forward", b.name))
	}
	if !grad.SameShape(b.xhat) {
		panic(shapeErr(b.name, "grad matching forward input", grad.Shape()))
	}
	n, c, h, w := grad.Dim(0), grad.Dim(1), grad.Dim(2), grad.Dim(3)
	count := float64(b.cachedN)
	b.dx = tensor.Reuse(b.dx, n, c, h, w)
	gD, xh, dxD := grad.Data(), b.xhat.Data(), b.dx.Data()
	gGrad, bGrad := b.gamma.Grad.Data(), b.beta.Grad.Data()
	gamma := b.gamma.Value.Data()

	for ch := 0; ch < c; ch++ {
		var sumDy, sumDyXhat float64
		for img := 0; img < n; img++ {
			base := (img*c + ch) * h * w
			for i := 0; i < h*w; i++ {
				dy := gD[base+i]
				sumDy += dy
				sumDyXhat += dy * xh[base+i]
			}
		}
		gGrad[ch] += sumDyXhat
		bGrad[ch] += sumDy
		k := gamma[ch] / b.std[ch]
		for img := 0; img < n; img++ {
			base := (img*c + ch) * h * w
			for i := 0; i < h*w; i++ {
				dxD[base+i] = k * (gD[base+i] - sumDy/count - xh[base+i]*sumDyXhat/count)
			}
		}
	}
	b.armed = false
	return b.dx
}

var _ Layer = (*BatchNorm2D)(nil)
