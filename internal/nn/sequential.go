package nn

import (
	"fmt"
	"io"
	"strings"

	"github.com/stsl/stsl/internal/tensor"
)

// Sequential chains layers into a feed-forward network. It is itself a
// Layer, so sub-networks compose: the split-learning framework builds one
// Sequential for the end-system stack and one for the server stack.
type Sequential struct {
	name   string
	layers []Layer
	// params is every layer's parameters in order, computed once: layer
	// parameter sets are fixed at construction.
	params []*Param
}

// NewSequential builds a network from the given layers. Layer names within
// one Sequential must be unique so parameters serialise unambiguously.
func NewSequential(name string, layers ...Layer) (*Sequential, error) {
	seen := make(map[string]bool, len(layers))
	for _, l := range layers {
		if l == nil {
			return nil, fmt.Errorf("nn: sequential %q contains nil layer", name)
		}
		if seen[l.Name()] {
			return nil, fmt.Errorf("nn: sequential %q has duplicate layer name %q", name, l.Name())
		}
		seen[l.Name()] = true
	}
	var ps []*Param
	for _, l := range layers {
		ps = append(ps, l.Params()...)
	}
	// Capacity clipped to length, so a caller's append copies instead of
	// writing past the end into a shared array.
	return &Sequential{name: name, layers: append([]Layer(nil), layers...), params: ps[:len(ps):len(ps)]}, nil
}

// Name implements Layer.
func (s *Sequential) Name() string { return s.name }

// Layers returns the contained layers in order. Callers must not mutate
// the returned slice.
func (s *Sequential) Layers() []Layer { return s.layers }

// Forward implements Layer.
func (s *Sequential) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	for _, l := range s.layers {
		x = l.Forward(x, train)
	}
	return x
}

// Backward implements Layer.
func (s *Sequential) Backward(grad *tensor.Tensor) *tensor.Tensor {
	for i := len(s.layers) - 1; i >= 0; i-- {
		grad = s.layers[i].Backward(grad)
	}
	return grad
}

// BackwardParams is Backward for a stack whose input gradient nobody
// reads, such as an end-system's: it accumulates the same parameter
// gradients bit for bit, but the first layer skips its input gradient
// when it can (a Conv2D then skips its input gradient).
func (s *Sequential) BackwardParams(grad *tensor.Tensor) {
	if len(s.layers) == 0 {
		return
	}
	for i := len(s.layers) - 1; i > 0; i-- {
		grad = s.layers[i].Backward(grad)
	}
	if l, ok := s.layers[0].(paramBackwarder); ok {
		l.backwardParams(grad)
	} else {
		s.layers[0].Backward(grad)
	}
}

// paramBackwarder is a layer that can run Backward without computing its
// input gradient: backwardParams accumulates the same parameter
// gradients as Backward and returns nothing.
type paramBackwarder interface {
	backwardParams(grad *tensor.Tensor)
}

// Params implements Layer: the concatenation of all layer parameters.
func (s *Sequential) Params() []*Param { return s.params }

// OutShape implements Layer by threading the shape through every layer.
func (s *Sequential) OutShape(in []int) ([]int, error) {
	var err error
	for _, l := range s.layers {
		in, err = l.OutShape(in)
		if err != nil {
			return nil, fmt.Errorf("nn: sequential %s at layer %s: %w", s.name, l.Name(), err)
		}
	}
	return in, nil
}

// DropScratch frees the lowering scratch and the padded input of every
// Conv2D in the stack, except the padded inputs a pending Backward still
// reads. Call it when a stack goes idle but stays referenced; the
// next Forward sizes them again, so results do not change.
func (s *Sequential) DropScratch() {
	for _, l := range s.layers {
		switch l := l.(type) {
		case *Sequential:
			l.DropScratch()
		case *Conv2D:
			l.dropScratch()
		}
	}
}

// ZeroGrad clears every parameter gradient.
func (s *Sequential) ZeroGrad() {
	for _, p := range s.Params() {
		p.ZeroGrad()
	}
}

// ParamCount returns the total number of scalar learnable parameters.
func (s *Sequential) ParamCount() int {
	n := 0
	for _, p := range s.Params() {
		n += p.Value.Size()
	}
	return n
}

// Summary renders a per-layer table of output shapes and parameter counts
// for a given per-sample input shape — the Fig-3 audit used by the bench
// harness.
func (s *Sequential) Summary(in []int) (string, error) {
	var b strings.Builder
	fmt.Fprintf(&b, "%-14s %-18s %12s\n", "layer", "output shape", "params")
	cur := append([]int(nil), in...)
	total := 0
	for _, l := range s.layers {
		next, err := l.OutShape(cur)
		if err != nil {
			return "", err
		}
		n := 0
		for _, p := range l.Params() {
			n += p.Value.Size()
		}
		total += n
		fmt.Fprintf(&b, "%-14s %-18s %12d\n", l.Name(), fmt.Sprintf("%v", next), n)
		cur = next
	}
	fmt.Fprintf(&b, "%-14s %-18s %12d\n", "total", "", total)
	return b.String(), nil
}

// SaveWeights writes every parameter tensor to w in declaration order
// using the tensor wire format, prefixed by the parameter count.
func (s *Sequential) SaveWeights(w io.Writer) error {
	ps := s.Params()
	if _, err := fmt.Fprintf(w, "STSLW %d\n", len(ps)); err != nil {
		return fmt.Errorf("nn: save header: %w", err)
	}
	for _, p := range ps {
		if _, err := fmt.Fprintf(w, "%s\n", p.Name); err != nil {
			return fmt.Errorf("nn: save name %s: %w", p.Name, err)
		}
		if _, err := p.Value.WriteTo(w); err != nil {
			return fmt.Errorf("nn: save tensor %s: %w", p.Name, err)
		}
	}
	return nil
}

// LoadWeights reads parameters written by SaveWeights into the network.
// Parameter names and shapes must match exactly.
func (s *Sequential) LoadWeights(r io.Reader) error {
	ps := s.Params()
	var count int
	if _, err := fmt.Fscanf(r, "STSLW %d\n", &count); err != nil {
		return fmt.Errorf("nn: load header: %w", err)
	}
	if count != len(ps) {
		return fmt.Errorf("nn: weight file has %d params, network has %d", count, len(ps))
	}
	for _, p := range ps {
		var name string
		if _, err := fmt.Fscanf(r, "%s\n", &name); err != nil {
			return fmt.Errorf("nn: load name: %w", err)
		}
		if name != p.Name {
			return fmt.Errorf("nn: weight order mismatch: file has %q, network expects %q", name, p.Name)
		}
		var t tensor.Tensor
		if _, err := t.ReadFrom(r); err != nil {
			return fmt.Errorf("nn: load tensor %s: %w", name, err)
		}
		if !t.SameShape(p.Value) {
			return fmt.Errorf("nn: tensor %s shape %v does not match parameter shape %v", name, t.Shape(), p.Value.Shape())
		}
		p.Value.CopyFrom(&t)
	}
	return nil
}

var _ Layer = (*Sequential)(nil)
