package nn

import (
	"fmt"
	"math"

	"github.com/stsl/stsl/internal/mathx"
	"github.com/stsl/stsl/internal/tensor"
)

// SoftmaxCrossEntropy computes the mean cross-entropy of softmax(logits)
// against integer class labels, fused for numerical stability. It returns
// the scalar loss and ∂loss/∂logits (already divided by the batch size, so
// it can be fed straight into Backward).
func SoftmaxCrossEntropy(logits *tensor.Tensor, labels []int) (float64, *tensor.Tensor, error) {
	return SoftmaxCrossEntropyInto(nil, logits, labels)
}

// SoftmaxCrossEntropyInto is SoftmaxCrossEntropy writing ∂loss/∂logits
// into grad, which is reused when it is already (N, classes) — the form a
// training loop that keeps its gradient buffer calls. On error the
// returned gradient is nil.
func SoftmaxCrossEntropyInto(grad, logits *tensor.Tensor, labels []int) (float64, *tensor.Tensor, error) {
	if logits.Dims() != 2 {
		return 0, nil, fmt.Errorf("nn: cross-entropy expects (N,classes) logits, got %v", logits.Shape())
	}
	n, classes := logits.Dim(0), logits.Dim(1)
	if len(labels) != n {
		return 0, nil, fmt.Errorf("nn: cross-entropy got %d labels for batch of %d", len(labels), n)
	}
	grad = tensor.Reuse(grad, n, classes)
	src := logits.Data()
	dst := grad.Data()
	loss := 0.0
	invN := 1 / float64(n)
	for i := 0; i < n; i++ {
		y := labels[i]
		if y < 0 || y >= classes {
			return 0, nil, fmt.Errorf("nn: label %d out of range [0,%d) at row %d", y, classes, i)
		}
		// The row's softmax probabilities are formed in place, then
		// scaled into the gradient.
		grow := dst[i*classes : (i+1)*classes]
		mathx.Softmax(grow, src[i*classes:(i+1)*classes])
		p := grow[y]
		if p < 1e-300 {
			p = 1e-300
		}
		loss -= math.Log(p)
		for j, pj := range grow {
			grow[j] = pj * invN
		}
		grow[y] -= invN
	}
	return loss * invN, grad, nil
}

// Predict returns the argmax class for each row of a (N, classes) logits
// (or probability) matrix.
func Predict(logits *tensor.Tensor) []int {
	s := logits.Shape()
	if len(s) != 2 {
		panic(fmt.Sprintf("nn: Predict expects (N,classes), got %v", s))
	}
	n, classes := s[0], s[1]
	out := make([]int, n)
	data := logits.Data()
	for i := 0; i < n; i++ {
		out[i] = mathx.ArgMax(data[i*classes : (i+1)*classes])
	}
	return out
}

// MSE returns the mean squared error between pred and target along with
// ∂loss/∂pred. Used by the privacy module's reconstruction attack decoder.
func MSE(pred, target *tensor.Tensor) (float64, *tensor.Tensor, error) {
	if !pred.SameShape(target) {
		return 0, nil, fmt.Errorf("nn: MSE shape mismatch %v vs %v", pred.Shape(), target.Shape())
	}
	n := pred.Size()
	if n == 0 {
		return 0, pred.Clone(), nil
	}
	grad := tensor.New(pred.Shape()...)
	gd := grad.Data()
	pd, td := pred.Data(), target.Data()
	loss := 0.0
	inv := 1 / float64(n)
	for i := range pd {
		d := pd[i] - td[i]
		loss += d * d
		gd[i] = 2 * d * inv
	}
	return loss * inv, grad, nil
}
