package privacy

import (
	"os"
	"path/filepath"
	"testing"

	"github.com/stsl/stsl/internal/data"
	"github.com/stsl/stsl/internal/mathx"
	"github.com/stsl/stsl/internal/nn"
	"github.com/stsl/stsl/internal/tensor"
)

func TestCorrelationProperties(t *testing.T) {
	r := mathx.NewRNG(1)
	a := tensor.Randn(r, 1, 8, 8)
	// Perfect correlation with itself and any affine transform.
	if c, err := Correlation(a, a); err != nil || c < 0.999 {
		t.Fatalf("self correlation = %v, %v", c, err)
	}
	b := a.Scale(-3)
	b.ApplyInPlace(func(v float64) float64 { return v + 7 })
	if c, err := Correlation(a, b); err != nil || c < 0.999 {
		t.Fatalf("affine correlation = %v, %v", c, err)
	}
	// Independent noise: low correlation.
	noise := tensor.Randn(mathx.NewRNG(999), 1, 8, 8)
	if c, err := Correlation(a, noise); err != nil || c > 0.5 {
		t.Fatalf("noise correlation = %v, %v", c, err)
	}
	// Constant map: zero correlation, no NaN.
	if c, err := Correlation(a, constant(2, 8, 8)); err != nil || c != 0 {
		t.Fatalf("constant correlation = %v, %v", c, err)
	}
	if _, err := Correlation(a, tensor.New(4, 4)); err == nil {
		t.Fatal("size mismatch accepted")
	}
}

func TestPSNR(t *testing.T) {
	a := constant(0.5, 4, 4)
	if p, err := PSNR(a, a.Clone()); err != nil || p != 100 {
		t.Fatalf("identical PSNR = %v, %v", p, err)
	}
	// Uniform error of 0.1 → MSE 0.01 → PSNR 20 dB.
	b := a.Clone().ApplyInPlace(func(v float64) float64 { return v + 0.1 })
	p, err := PSNR(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if p < 19.9 || p > 20.1 {
		t.Fatalf("PSNR = %v, want ≈20", p)
	}
}

func TestSSIMBounds(t *testing.T) {
	r := mathx.NewRNG(2)
	a := tensor.Rand(r, 0, 1, 8, 8)
	s, err := SSIM(a, a.Clone())
	if err != nil {
		t.Fatal(err)
	}
	if s < 0.999 {
		t.Fatalf("self SSIM = %v", s)
	}
	noise := tensor.Rand(mathx.NewRNG(77), 0, 1, 8, 8)
	sn, err := SSIM(a, noise)
	if err != nil {
		t.Fatal(err)
	}
	if sn >= s {
		t.Fatalf("noise SSIM %v not below self SSIM %v", sn, s)
	}
}

func TestNormalizeUnitAndResize(t *testing.T) {
	m := tensor.FromSlice([]float64{-1, 0, 1, 3}, 2, 2)
	n := normalizeUnit(m)
	if n.At(0, 0) != 0 || n.At(1, 1) != 1 {
		t.Fatalf("normalizeUnit = %v", n)
	}
	// Constant input normalises to zeros.
	z := normalizeUnit(constant(5, 2, 2))
	if z.MaxAbs() != 0 {
		t.Fatalf("constant normalize = %v", z)
	}
	big := resizeNearest(m, 4, 4)
	if s := big.Shape(); s[0] != 4 || s[1] != 4 {
		t.Fatalf("resize shape %v", s)
	}
	if big.At(0, 0) != m.At(0, 0) || big.At(3, 3) != m.At(1, 1) {
		t.Fatal("nearest resize misplaced corners")
	}
}

func TestSaveImagePNG(t *testing.T) {
	dir := t.TempDir()
	r := mathx.NewRNG(3)
	img := tensor.Rand(r, 0, 1, 3, 8, 8)
	path := filepath.Join(dir, "sub", "img.png")
	if err := SaveImagePNG(img, path); err != nil {
		t.Fatal(err)
	}
	info, err := os.Stat(path)
	if err != nil || info.Size() == 0 {
		t.Fatalf("png not written: %v", err)
	}
	// Grayscale single channel also works.
	if err := SaveImagePNG(tensor.Rand(r, 0, 1, 1, 4, 4), filepath.Join(dir, "g.png")); err != nil {
		t.Fatal(err)
	}
	// Wrong shape rejected.
	if err := SaveImagePNG(tensor.New(2, 4, 4), filepath.Join(dir, "bad.png")); err == nil {
		t.Fatal("2-channel image accepted")
	}
}

func TestSaveActivationGridPNG(t *testing.T) {
	dir := t.TempDir()
	r := mathx.NewRNG(4)
	act := tensor.Randn(r, 1, 6, 5, 5)
	path := filepath.Join(dir, "grid.png")
	if err := SaveActivationGridPNG(act, 3, path); err != nil {
		t.Fatal(err)
	}
	if info, err := os.Stat(path); err != nil || info.Size() == 0 {
		t.Fatalf("grid not written: %v", err)
	}
}

func TestRunFig4MonotoneLeak(t *testing.T) {
	r := mathx.NewRNG(5)
	model, err := nn.BuildPaperCNN(nn.PaperCNNConfig{
		Height: 16, Width: 16, Filters: []int{8, 16}, Hidden: 32, Classes: 4,
	}, r)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := (data.SynthCIFAR{Height: 16, Width: 16, Classes: 4, Noise: 0.03}).Generate(6, 9)
	if err != nil {
		t.Fatal(err)
	}
	monotone := 0
	for i := 0; i < ds.Len(); i++ {
		res, err := RunFig4(model, ds.Image(i), "")
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Stages) != 3 {
			t.Fatalf("stages = %d", len(res.Stages))
		}
		if res.Stages[0].Leak.Correlation != 1 {
			t.Fatal("original stage must leak perfectly")
		}
		if res.Monotone() {
			monotone++
		}
		// The pooled stage must always leak less than the raw original.
		if res.Stages[2].Leak.Correlation >= 1 {
			t.Fatal("pooled activation claims perfect leak")
		}
	}
	// The qualitative Fig-4 claim: for most images pooling hides more
	// than convolution alone.
	if monotone < ds.Len()/2 {
		t.Fatalf("leak monotone for only %d/%d images", monotone, ds.Len())
	}
}

func TestRunFig4WritesPNGs(t *testing.T) {
	dir := t.TempDir()
	r := mathx.NewRNG(6)
	model, err := nn.BuildPaperCNN(nn.PaperCNNConfig{
		Height: 8, Width: 8, Filters: []int{4}, Hidden: 16, Classes: 4,
	}, r)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := (data.SynthCIFAR{Height: 8, Width: 8, Classes: 4}).Generate(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunFig4(model, ds.Image(0), dir); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"original.png", "conv_l1.png", "l1.png"} {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Fatalf("missing %s: %v", name, err)
		}
	}
}

func TestReconstructionAttackLeaksLessWithPooling(t *testing.T) {
	// The stronger adversary: a trained decoder reconstructs better from
	// conv-only activations (cut after conv1, no pool) than from the full
	// first block (conv+pool). We approximate "conv only" with a 1-block
	// model cut before pooling by building stacks manually.
	r := mathx.NewRNG(7)
	gen := data.SynthCIFAR{Height: 8, Width: 8, Classes: 4, Noise: 0.03}
	aux, err := gen.Generate(96, 11)
	if err != nil {
		t.Fatal(err)
	}
	holdout, err := gen.Generate(16, 12)
	if err != nil {
		t.Fatal(err)
	}

	conv, err := nn.NewConv2D(nn.Conv2DConfig{Name: "c1", In: 3, Out: 4, KernelH: 3, KernelW: 3, SamePad: true}, r)
	if err != nil {
		t.Fatal(err)
	}
	relu := nn.NewReLU("r1")
	pool, err := nn.NewMaxPool2D("p1", 2, 2, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	convOnly, err := nn.NewSequential("conv-only", conv, relu)
	if err != nil {
		t.Fatal(err)
	}
	convPool, err := nn.NewSequential("conv-pool", conv, relu, pool)
	if err != nil {
		t.Fatal(err)
	}

	cfg := AttackConfig{Seed: 13, Steps: 150, BatchSize: 16, LR: 0.005, Hidden: 64}
	resConv, err := ReconstructionAttack(cfg, convOnly, aux, holdout)
	if err != nil {
		t.Fatal(err)
	}
	resPool, err := ReconstructionAttack(cfg, convPool, aux, holdout)
	if err != nil {
		t.Fatal(err)
	}
	if resConv.MeanCorrelation <= resPool.MeanCorrelation {
		t.Fatalf("attack on conv-only (corr %.3f) not stronger than on conv+pool (corr %.3f)",
			resConv.MeanCorrelation, resPool.MeanCorrelation)
	}
}

func TestReconstructionAttackValidation(t *testing.T) {
	r := mathx.NewRNG(8)
	d, err := nn.NewDense("d", 4, 4, nil, r)
	if err != nil {
		t.Fatal(err)
	}
	seq, err := nn.NewSequential("s", d)
	if err != nil {
		t.Fatal(err)
	}
	empty := &data.Dataset{X: tensor.New(0, 1, 2, 2), Classes: 2}
	if _, err := ReconstructionAttack(AttackConfig{}, seq, empty, empty); err == nil {
		t.Fatal("empty datasets accepted")
	}
}

// constant returns a tensor of the given shape with every element v.
func constant(v float64, shape ...int) *tensor.Tensor {
	t := tensor.New(shape...)
	t.Fill(v)
	return t
}
