package nn

import (
	"bytes"
	"strings"
	"testing"

	"github.com/stsl/stsl/internal/mathx"
	"github.com/stsl/stsl/internal/tensor"
)

func smallMLP(t *testing.T, r *mathx.RNG) *Sequential {
	t.Helper()
	d1, err := NewDense("d1", 4, 8, nil, r)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := NewDense("d2", 8, 3, nil, r)
	if err != nil {
		t.Fatal(err)
	}
	seq, err := NewSequential("mlp", d1, NewReLU("r1"), d2)
	if err != nil {
		t.Fatal(err)
	}
	return seq
}

func TestSequentialRejectsDuplicatesAndNil(t *testing.T) {
	r := mathx.NewRNG(1)
	d1, _ := NewDense("d", 2, 2, nil, r)
	d2, _ := NewDense("d", 2, 2, nil, r)
	if _, err := NewSequential("s", d1, d2); err == nil {
		t.Fatal("duplicate layer names accepted")
	}
	if _, err := NewSequential("s", d1, nil); err == nil {
		t.Fatal("nil layer accepted")
	}
}

func TestSequentialForwardMatchesManualChain(t *testing.T) {
	r := mathx.NewRNG(2)
	seq := smallMLP(t, r)
	x := tensor.Randn(r, 1, 5, 4)
	want := x
	for _, l := range seq.Layers() {
		want = l.Forward(want, false)
	}
	got := seq.Forward(x, false)
	if !got.Equal(want, 0) {
		t.Fatal("sequential forward differs from manual chain")
	}
}

func TestSequentialGradients(t *testing.T) {
	r := mathx.NewRNG(3)
	seq := smallMLP(t, r)
	x := tensor.Randn(r, 1, 2, 4)
	if _, err := CheckLayerGradients(seq, x, 1e-5, 1e-5); err != nil {
		t.Fatal(err)
	}
}

func TestSequentialOutShapeAndParamCount(t *testing.T) {
	r := mathx.NewRNG(4)
	seq := smallMLP(t, r)
	out, err := seq.OutShape([]int{4})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || out[0] != 3 {
		t.Fatalf("OutShape = %v", out)
	}
	// d1: 4*8+8, d2: 8*3+3.
	if got := seq.ParamCount(); got != 4*8+8+8*3+3 {
		t.Fatalf("ParamCount = %d", got)
	}
	if _, err := seq.OutShape([]int{5}); err == nil {
		t.Fatal("bad input shape accepted")
	}
}

func TestSequentialZeroGrad(t *testing.T) {
	r := mathx.NewRNG(5)
	seq := smallMLP(t, r)
	x := tensor.Randn(r, 1, 2, 4)
	y := seq.Forward(x, true)
	seq.Backward(y)
	dirty := false
	for _, p := range seq.Params() {
		if p.Grad.MaxAbs() > 0 {
			dirty = true
		}
	}
	if !dirty {
		t.Fatal("backward accumulated no gradient")
	}
	seq.ZeroGrad()
	for _, p := range seq.Params() {
		if p.Grad.MaxAbs() != 0 {
			t.Fatalf("param %s grad not cleared", p.Name)
		}
	}
}

func TestSaveLoadWeightsRoundTrip(t *testing.T) {
	r := mathx.NewRNG(6)
	a := smallMLP(t, r)
	b := smallMLP(t, mathx.NewRNG(7)) // different weights

	var buf bytes.Buffer
	if err := a.SaveWeights(&buf); err != nil {
		t.Fatal(err)
	}
	if err := b.LoadWeights(&buf); err != nil {
		t.Fatal(err)
	}
	x := tensor.Randn(r, 1, 3, 4)
	if !a.Forward(x, false).Equal(b.Forward(x, false), 0) {
		t.Fatal("loaded network computes differently")
	}
}

func TestLoadWeightsRejectsMismatch(t *testing.T) {
	r := mathx.NewRNG(8)
	a := smallMLP(t, r)
	var buf bytes.Buffer
	if err := a.SaveWeights(&buf); err != nil {
		t.Fatal(err)
	}
	// A structurally different network must refuse the file.
	d, _ := NewDense("other", 4, 4, nil, r)
	other, _ := NewSequential("o", d)
	if err := other.LoadWeights(bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("mismatched load accepted")
	}
}

func TestPaperCNNArchitecture(t *testing.T) {
	r := mathx.NewRNG(9)
	m, err := BuildPaperCNN(PaperCNNConfig{}, r)
	if err != nil {
		t.Fatal(err)
	}
	out, err := m.Net.OutShape([]int{3, 32, 32})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || out[0] != 10 {
		t.Fatalf("OutShape = %v, want [10]", out)
	}
	if m.MaxCut() != 5 {
		t.Fatalf("MaxCut = %d", m.MaxCut())
	}
	// Fig 3: filters 16/32/64/128/256, input 32x32 halved 5 times → 1x1x256.
	summary, err := m.Net.Summary([]int{3, 32, 32})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"conv1", "pool5", "[256 1 1]", "fc1", "fc2"} {
		if !strings.Contains(summary, want) {
			t.Fatalf("summary missing %q:\n%s", want, summary)
		}
	}
	// Forward pass shape.
	x := tensor.Randn(r, 1, 2, 3, 32, 32)
	y := m.Net.Forward(x, false)
	if s := y.Shape(); s[0] != 2 || s[1] != 10 {
		t.Fatalf("forward shape = %v", s)
	}
}

func TestPaperCNNCutIndex(t *testing.T) {
	r := mathx.NewRNG(10)
	m, err := BuildPaperCNN(PaperCNNConfig{}, r)
	if err != nil {
		t.Fatal(err)
	}
	// cut=0 → no client layers.
	if idx, err := m.CutIndex(0); err != nil || idx != 0 {
		t.Fatalf("CutIndex(0) = %d, %v", idx, err)
	}
	// cut=1 → conv1, pool1, relu1 (3 layers).
	if idx, err := m.CutIndex(1); err != nil || idx != 3 {
		t.Fatalf("CutIndex(1) = %d, %v", idx, err)
	}
	if idx, err := m.CutIndex(5); err != nil || idx != 15 {
		t.Fatalf("CutIndex(5) = %d, %v", idx, err)
	}
	if _, err := m.CutIndex(6); err == nil {
		t.Fatal("CutIndex(6) accepted")
	}
	if _, err := m.CutIndex(-1); err == nil {
		t.Fatal("CutIndex(-1) accepted")
	}
}

func TestPaperCNNSmallVariant(t *testing.T) {
	r := mathx.NewRNG(11)
	m, err := BuildPaperCNN(PaperCNNConfig{
		Height: 16, Width: 16,
		Filters: []int{8, 16},
		Hidden:  32,
		Classes: 4,
	}, r)
	if err != nil {
		t.Fatal(err)
	}
	out, err := m.Net.OutShape([]int{3, 16, 16})
	if err != nil {
		t.Fatal(err)
	}
	if out[0] != 4 {
		t.Fatalf("OutShape = %v", out)
	}
}

func TestPaperCNNRejectsTooManyBlocks(t *testing.T) {
	r := mathx.NewRNG(12)
	_, err := BuildPaperCNN(PaperCNNConfig{
		Height: 8, Width: 8,
		Filters: []int{4, 4, 4, 4, 4}, // 8x8 cannot be halved 5 times
	}, r)
	if err == nil {
		t.Fatal("oversized block count accepted")
	}
}

func TestSequentialTrainingReducesLoss(t *testing.T) {
	// A tiny end-to-end sanity check: a 2-layer MLP must fit 8 random
	// points in a few hundred SGD steps.
	r := mathx.NewRNG(14)
	seq := smallMLP(t, r)
	x := tensor.Randn(r, 1, 8, 4)
	labels := make([]int, 8)
	for i := range labels {
		labels[i] = r.Intn(3)
	}
	first, last := 0.0, 0.0
	for step := 0; step < 300; step++ {
		seq.ZeroGrad()
		logits := seq.Forward(x, true)
		loss, grad, err := SoftmaxCrossEntropy(logits, labels)
		if err != nil {
			t.Fatal(err)
		}
		if step == 0 {
			first = loss
		}
		last = loss
		seq.Backward(grad)
		for _, p := range seq.Params() {
			p.Value.AXPY(-0.1, p.Grad)
		}
	}
	if last > first/4 {
		t.Fatalf("loss did not drop enough: first %v, last %v", first, last)
	}
}
