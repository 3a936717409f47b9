package nn

import (
	"math"

	"github.com/stsl/stsl/internal/mathx"
	"github.com/stsl/stsl/internal/tensor"
)

// Initializer fills a freshly allocated weight tensor. fanIn and fanOut are
// the layer's input and output connectivity counts.
type Initializer func(r *mathx.RNG, fanIn, fanOut int, shape ...int) *tensor.Tensor

// HeNormal returns the He (Kaiming) normal initializer, the standard choice
// ahead of ReLU nonlinearities: N(0, sqrt(2/fanIn)).
func HeNormal() Initializer {
	return func(r *mathx.RNG, fanIn, _ int, shape ...int) *tensor.Tensor {
		return tensor.Randn(r, math.Sqrt(2/float64(fanIn)), shape...)
	}
}

// XavierUniform returns the Glorot uniform initializer,
// U(-a, a) with a = sqrt(6/(fanIn+fanOut)).
func XavierUniform() Initializer {
	return func(r *mathx.RNG, fanIn, fanOut int, shape ...int) *tensor.Tensor {
		a := math.Sqrt(6 / float64(fanIn+fanOut))
		return tensor.Rand(r, -a, a, shape...)
	}
}
