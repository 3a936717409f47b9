package opt

import (
	"math"
	"testing"

	"github.com/stsl/stsl/internal/mathx"
	"github.com/stsl/stsl/internal/nn"
	"github.com/stsl/stsl/internal/tensor"
)

// quadParam builds a parameter initialised at x0 whose loss is 0.5‖x‖², so
// grad = x and the optimum is the origin.
func quadParam(x0 []float64) *nn.Param {
	return nn.NewParam("x", tensor.FromSlice(x0, len(x0)))
}

func quadGrad(p *nn.Param) {
	p.ZeroGrad()
	p.Grad.AddInPlace(p.Value)
}

func TestConfigValidation(t *testing.T) {
	if _, err := NewSGD(Config{LR: 0}); err == nil {
		t.Fatal("zero LR accepted")
	}
	if _, err := NewSGD(Config{LR: -1}); err == nil {
		t.Fatal("negative LR accepted")
	}
	if _, err := NewAdam(Config{LR: 0}); err == nil {
		t.Fatal("zero Adam LR accepted")
	}
}

func TestSGDStepExactValue(t *testing.T) {
	p := quadParam([]float64{10})
	o, err := NewSGD(Config{LR: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	quadGrad(p)
	o.Step([]*nn.Param{p})
	// x ← x - lr·x = 10 - 1 = 9.
	if got := p.Value.At(0); math.Abs(got-9) > 1e-12 {
		t.Fatalf("after step x = %v, want 9", got)
	}
}

func TestOptimizersConvergeOnQuadratic(t *testing.T) {
	mk := map[string]func() Optimizer{
		"sgd": func() Optimizer {
			o, _ := NewSGD(Config{LR: 0.1})
			return o
		},
		"adam": func() Optimizer {
			o, _ := NewAdam(Config{LR: 0.3})
			return o
		},
	}
	for name, f := range mk {
		t.Run(name, func(t *testing.T) {
			p := quadParam([]float64{5, -3, 8, 0.5})
			o := f()
			for i := 0; i < 300; i++ {
				quadGrad(p)
				o.Step([]*nn.Param{p})
			}
			if norm := math.Sqrt(p.Value.Dot(p.Value)); norm > 1e-2 {
				t.Fatalf("%s did not converge: ‖x‖ = %v", name, norm)
			}
		})
	}
}

func TestAdamPerCoordinateScaling(t *testing.T) {
	// Adam normalises per-coordinate: two coordinates with very different
	// gradient scales receive near-equal first updates.
	p := quadParam([]float64{0, 0})
	p.Grad.Data()[0] = 1000
	p.Grad.Data()[1] = 0.001
	o, _ := NewAdam(Config{LR: 0.1})
	o.Step([]*nn.Param{p})
	u0, u1 := math.Abs(p.Value.At(0)), math.Abs(p.Value.At(1))
	if math.Abs(u0-u1)/u0 > 0.01 {
		t.Fatalf("adam first-step updates differ: %v vs %v", u0, u1)
	}
}

func TestTrainSmallNetWithAdam(t *testing.T) {
	// Integration: Adam trains a small MLP to fit random data.
	r := mathx.NewRNG(1)
	d1, err := nn.NewDense("d1", 4, 16, nil, r)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := nn.NewDense("d2", 16, 3, nil, r)
	if err != nil {
		t.Fatal(err)
	}
	net, err := nn.NewSequential("mlp", d1, nn.NewReLU("r"), d2)
	if err != nil {
		t.Fatal(err)
	}
	o, err := NewAdam(Config{LR: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.Randn(r, 1, 16, 4)
	labels := make([]int, 16)
	for i := range labels {
		labels[i] = r.Intn(3)
	}
	var first, last float64
	for step := 0; step < 200; step++ {
		net.ZeroGrad()
		logits := net.Forward(x, true)
		loss, grad, err := nn.SoftmaxCrossEntropy(logits, labels)
		if err != nil {
			t.Fatal(err)
		}
		if step == 0 {
			first = loss
		}
		last = loss
		net.Backward(grad)
		o.Step(net.Params())
	}
	if last > first/3 {
		t.Fatalf("adam training did not reduce loss: %v → %v", first, last)
	}
}
