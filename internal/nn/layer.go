// Package nn implements the neural-network layers, loss, and container
// types needed to train the paper's Fig-3 CNN from scratch: Conv2D (a
// channel-major lowering to a product), MaxPool2D, Dense, ReLU, Flatten,
// and a numerically-stable softmax cross-entropy loss (plus the MSE the
// privacy module's reconstruction decoder trains on). These are exactly
// the layers BuildPaperCNN emits.
//
// Layers follow a define-by-run contract: Forward caches whatever it needs
// for the matching Backward call. A layer instance therefore handles one
// batch at a time and is not safe for concurrent use; each end-system in
// the split-learning framework owns its own layer stack.
//
// Layers own their buffers (see Layer for the rule): a training step
// reuses the same output, cache and gradient storage from one batch to
// the next and allocates only when the batch shape changes.
//
// Tensors flow in NCHW layout (batch, channels, height, width) through the
// convolutional stack and as (batch, features) matrices after Flatten.
package nn

import (
	"fmt"

	"github.com/stsl/stsl/internal/tensor"
)

// Param is one learnable tensor together with its gradient accumulator.
// Optimisers mutate Value; Backward accumulates into Grad.
type Param struct {
	// Name identifies the parameter for diagnostics and serialisation,
	// e.g. "conv1/weight".
	Name  string
	Value *tensor.Tensor
	Grad  *tensor.Tensor
}

// NewParam allocates a parameter with a zeroed gradient of matching shape.
func NewParam(name string, value *tensor.Tensor) *Param {
	return &Param{
		Name:  name,
		Value: value,
		Grad:  tensor.New(value.Shape()...),
	}
}

// ZeroGrad clears the accumulated gradient.
func (p *Param) ZeroGrad() { p.Grad.Zero() }

// Layer is one differentiable stage of a network.
//
// Forward consumes a batch and returns the batch output; when train is
// true the layer caches activations needed by Backward. Backward
// consumes ∂L/∂output and returns ∂L/∂input, accumulating parameter
// gradients as a side effect.
// Backward must be called at most once per Forward, with the gradient of
// the most recent Forward's output.
//
// Ownership: a layer writes its results into workspaces it owns and
// reuses, so
//   - a Forward output is valid until that layer's next Forward;
//   - a Backward output is valid until that layer's next Backward;
//   - a layer never writes into a tensor it was given (its input, or the
//     gradient handed to Backward);
//   - anything that must outlive the step — a message payload, a cached
//     reply — is a copy the caller owns.
type Layer interface {
	// Name returns a short unique identifier, e.g. "conv1".
	Name() string
	// Forward runs the layer on a batch.
	Forward(x *tensor.Tensor, train bool) *tensor.Tensor
	// Backward back-propagates through the most recent Forward.
	Backward(grad *tensor.Tensor) *tensor.Tensor
	// Params returns the layer's learnable parameters (possibly empty).
	// Callers must not mutate the returned slice.
	Params() []*Param
	// OutShape maps a per-sample input shape (excluding the batch
	// dimension) to the per-sample output shape.
	OutShape(in []int) ([]int, error)
}

// resize returns s with length n, reusing its storage when it is large
// enough: a layer's mask or index cache keeps one backing array across
// batches. The contents are stale; the caller overwrites them.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// reuseLike returns dst when it already has t's shape, and a fresh
// tensor of that shape otherwise, tagged with t's dtype either way: the
// workspace of a layer whose output mirrors its input elementwise.
func reuseLike(dst, t *tensor.Tensor) *tensor.Tensor {
	if dst == nil || !dst.SameShape(t) {
		dst = tensor.New(t.Shape()...)
	}
	return dst.SetDType(t.DType())
}

// shapeVolume returns the product of dims.
func shapeVolume(dims []int) int {
	v := 1
	for _, d := range dims {
		v *= d
	}
	return v
}

func shapeErr(layer string, want string, got []int) error {
	return fmt.Errorf("nn: layer %s expects %s input, got shape %v", layer, want, got)
}
