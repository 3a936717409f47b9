package nn

import (
	"fmt"
	"math"
	"testing"

	"github.com/stsl/stsl/internal/mathx"
	"github.com/stsl/stsl/internal/tensor"
)

func TestConv2DKnownValues(t *testing.T) {
	// One 1-channel 3x3 input, one 2x2 kernel of all ones, no pad: output
	// is the sum over each receptive field.
	r := mathx.NewRNG(1)
	conv, err := NewConv2D(Conv2DConfig{Name: "c", In: 1, Out: 1, KernelH: 2, KernelW: 2}, r)
	if err != nil {
		t.Fatal(err)
	}
	conv.weight.Value.Fill(1)
	conv.bias.Value.Fill(0.5)
	x := tensor.FromSlice([]float64{
		1, 2, 3,
		4, 5, 6,
		7, 8, 9,
	}, 1, 1, 3, 3)
	got := conv.Forward(x, false)
	want := tensor.FromSlice([]float64{
		1 + 2 + 4 + 5 + 0.5, 2 + 3 + 5 + 6 + 0.5,
		4 + 5 + 7 + 8 + 0.5, 5 + 6 + 8 + 9 + 0.5,
	}, 1, 1, 2, 2)
	if !got.Equal(want, 1e-12) {
		t.Fatalf("conv forward = %v, want %v", got, want)
	}
}

func TestConv2DSamePadPreservesSpatialDims(t *testing.T) {
	r := mathx.NewRNG(2)
	conv, err := NewConv2D(Conv2DConfig{Name: "c", In: 3, Out: 16, KernelH: 3, KernelW: 3, SamePad: true}, r)
	if err != nil {
		t.Fatal(err)
	}
	out, err := conv.OutShape([]int{3, 32, 32})
	if err != nil {
		t.Fatal(err)
	}
	if out[0] != 16 || out[1] != 32 || out[2] != 32 {
		t.Fatalf("OutShape = %v, want [16 32 32]", out)
	}
	x := tensor.Randn(r, 1, 2, 3, 32, 32)
	y := conv.Forward(x, false)
	if s := y.Shape(); s[0] != 2 || s[1] != 16 || s[2] != 32 || s[3] != 32 {
		t.Fatalf("forward shape = %v", s)
	}
}

func TestConv2DRejectsBadConfig(t *testing.T) {
	r := mathx.NewRNG(1)
	cases := []Conv2DConfig{
		{Name: "a", In: 0, Out: 4, KernelH: 3, KernelW: 3},
		{Name: "b", In: 3, Out: 0, KernelH: 3, KernelW: 3},
		{Name: "c", In: 3, Out: 4, KernelH: 0, KernelW: 3},
		{Name: "d", In: 3, Out: 4, KernelH: 2, KernelW: 2, SamePad: true}, // even kernel same-pad
		{Name: "e", In: 3, Out: 4, KernelH: 3, KernelW: 3, PadH: -1},
	}
	for _, cfg := range cases {
		if _, err := NewConv2D(cfg, r); err == nil {
			t.Fatalf("config %+v accepted", cfg)
		}
	}
}

// convGradCase is one geometry for the conv gradient checks.
type convGradCase struct {
	name string
	cfg  Conv2DConfig
	h, w int
}

func checkConvGradients(t *testing.T, seed uint64, cases []convGradCase) {
	t.Helper()
	for i, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := mathx.NewRNG(seed + uint64(i))
			tc.cfg.Name = "c"
			conv, err := NewConv2D(tc.cfg, r)
			if err != nil {
				t.Fatal(err)
			}
			x := tensor.Randn(r, 1, 2, tc.cfg.In, tc.h, tc.w)
			if _, err := CheckLayerGradients(conv, x, 1e-5, 1e-5); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestConv2DGradients checks the stride-1 lowering against finite
// differences, down to 1×1 and 2×2 outputs, 1×1 kernels, no padding,
// non-square inputs and odd channel counts (the kernels' tails).
func TestConv2DGradients(t *testing.T) {
	checkConvGradients(t, 3, []convGradCase{
		{"same-3x3", Conv2DConfig{In: 2, Out: 3, KernelH: 3, KernelW: 3, SamePad: true}, 5, 5},
		{"1x1-kernel-nonsquare", Conv2DConfig{In: 3, Out: 5, KernelH: 1, KernelW: 1}, 4, 6},
		{"2x2-out-pad0", Conv2DConfig{In: 2, Out: 4, KernelH: 3, KernelW: 3}, 4, 4},
		{"1x1-out-pad0", Conv2DConfig{In: 3, Out: 2, KernelH: 3, KernelW: 3}, 3, 3},
		{"1x1-out-padded", Conv2DConfig{In: 2, Out: 3, KernelH: 3, KernelW: 3, SamePad: true}, 1, 1},
		{"2x3-kernel-nonsquare", Conv2DConfig{In: 2, Out: 3, KernelH: 2, KernelW: 3, PadH: 1}, 5, 7},
	})
}

// TestConv2DStridedGradients is TestConv2DGradients for strided
// geometries.
func TestConv2DStridedGradients(t *testing.T) {
	checkConvGradients(t, 4, []convGradCase{
		{"2x2-stride2", Conv2DConfig{In: 1, Out: 2, KernelH: 2, KernelW: 2, StrideH: 2, StrideW: 2}, 6, 6},
		{"3x3-stride2-padded-nonsquare", Conv2DConfig{In: 2, Out: 3, KernelH: 3, KernelW: 3, StrideH: 2, StrideW: 2, SamePad: true}, 5, 7},
		{"1x1-out-stride2", Conv2DConfig{In: 2, Out: 3, KernelH: 3, KernelW: 3, StrideH: 2, StrideW: 2}, 4, 4},
		{"1x1-kernel-stride2", Conv2DConfig{In: 3, Out: 2, KernelH: 1, KernelW: 1, StrideH: 2, StrideW: 2}, 5, 5},
		{"2x2-out-stride2x1", Conv2DConfig{In: 2, Out: 5, KernelH: 3, KernelW: 2, StrideH: 2, StrideW: 1, PadW: 1}, 4, 2},
	})
}

func TestMaxPoolKnownValues(t *testing.T) {
	pool, err := NewMaxPool2D("p", 2, 2, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.FromSlice([]float64{
		1, 2, 5, 6,
		3, 4, 7, 8,
		9, 1, 2, 3,
		1, 1, 4, 1,
	}, 1, 1, 4, 4)
	got := pool.Forward(x, false)
	want := tensor.FromSlice([]float64{4, 8, 9, 4}, 1, 1, 2, 2)
	if !got.Equal(want, 0) {
		t.Fatalf("pool forward = %v, want %v", got, want)
	}
}

func TestMaxPoolBackwardRoutesToArgmax(t *testing.T) {
	pool, err := NewMaxPool2D("p", 2, 2, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.FromSlice([]float64{
		1, 2,
		3, 4,
	}, 1, 1, 2, 2)
	pool.Forward(x, true)
	grad := tensor.FromSlice([]float64{10}, 1, 1, 1, 1)
	dx := pool.Backward(grad)
	want := tensor.FromSlice([]float64{0, 0, 0, 10}, 1, 1, 2, 2)
	if !dx.Equal(want, 0) {
		t.Fatalf("pool backward = %v, want %v", dx, want)
	}
}

// TestMaxPoolWindowWithoutMaximum regresses a window in which nothing
// compares above −Inf — all NaN, or all −Inf. Forward wrote −Inf even for
// the NaN window, and Backward indexed the input gradient at −1 and
// panicked. Such a window now yields its first element and routes its
// gradient there; the third window, with a finite maximum, is unchanged.
func TestMaxPoolWindowWithoutMaximum(t *testing.T) {
	pool, err := NewMaxPool2D("p", 2, 2, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	nan, inf := math.NaN(), math.Inf(-1)
	x := tensor.FromSlice([]float64{
		nan, nan, inf, inf, nan, 1,
		nan, nan, inf, inf, 2, nan,
	}, 1, 1, 2, 6)
	y := pool.Forward(x, true).Data()
	if !math.IsNaN(y[0]) || !math.IsInf(y[1], -1) || y[2] != 2 {
		t.Fatalf("pool forward = %v, want [NaN -Inf 2]", y)
	}
	dx := pool.Backward(tensor.FromSlice([]float64{10, 20, 30}, 1, 1, 1, 3))
	want := tensor.FromSlice([]float64{
		10, 0, 20, 0, 0, 0,
		0, 0, 0, 0, 30, 0,
	}, 1, 1, 2, 6)
	if !dx.Equal(want, 0) {
		t.Fatalf("pool backward = %v, want %v", dx, want)
	}
}

// TestMaxPoolMatchesBranchingScan checks the branch-free pool against
// the scan it replaced — strict greater-than from −Inf, first maximum
// wins, first element when nothing beats −Inf — bit for bit in value
// and argmax, over windows drawn from a few values with ties, signed
// zeros, infinities and NaN, in 2×2, overlapping 3×2 and 3×3 windows,
// and in long output rows, some of whose 2×2 windows the AVX2 kernel
// takes four at a time and some the Go scan.
func TestMaxPoolMatchesBranchingScan(t *testing.T) {
	vals := []float64{math.NaN(), math.Inf(-1), math.Inf(1), math.Copysign(0, -1), 0, -1, 1, 2}
	r := mathx.NewRNG(43)
	for _, k := range [][5]int{{2, 2, 2, 2, 8}, {3, 2, 1, 2, 8}, {2, 2, 1, 1, 137}, {2, 2, 2, 2, 43}, {3, 3, 2, 2, 9}} {
		pool, err := NewMaxPool2D("p", k[0], k[1], k[2], k[3])
		if err != nil {
			t.Fatal(err)
		}
		n, c, h, w := 3, 2, 6, k[4]
		x := tensor.New(n, c, h, w)
		for i := range x.Data() {
			x.Data()[i] = vals[r.Intn(len(vals))]
		}
		y := pool.Forward(x, true).Data()
		oh, ow := (h-k[0])/pool.strideH+1, (w-k[1])/pool.strideW+1
		src := x.Data()
		for plane := 0; plane < n*c; plane++ {
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					best, idx := math.Inf(-1), -1
					for ky := 0; ky < k[0]; ky++ {
						for kx := 0; kx < k[1]; kx++ {
							i := plane*h*w + (oy*pool.strideH+ky)*w + ox*pool.strideW + kx
							if src[i] > best {
								best, idx = src[i], i
							}
						}
					}
					if idx < 0 {
						idx = plane*h*w + oy*pool.strideH*w + ox*pool.strideW
					}
					di := (plane*oh+oy)*ow + ox
					if pool.argmax[di] != idx || math.Float64bits(y[di]) != math.Float64bits(src[idx]) {
						t.Fatalf("window %d: value %v at %d, want %v at %d", di, y[di], pool.argmax[di], src[idx], idx)
					}
				}
			}
		}
	}
}

// TestPoolReLUCommute holds BuildPaperCNN's block tail, max-pool then
// ReLU, to the drawn ReLU then max-pool, bit for bit: the forward output
// in train and eval mode and the input gradient. Windows hold both zeros,
// both NaNs, both infinities, ties and only non-positive values, and so
// do the gradients; the windows are 2×2 stride 2 (the kernels' tiled
// case, with and without rows the AVX2 kernel takes) and an overlapping
// 3×2 stride 1, alone and behind the same Conv2D weights.
func TestPoolReLUCommute(t *testing.T) {
	specials := []float64{math.NaN(), math.Float64frombits(0xfff8000000000001), math.Inf(1), math.Inf(-1),
		math.Copysign(0, -1), 0, -1, -0.5, 0.5, 1, 2}
	draw := func(r *mathx.RNG, shape ...int) *tensor.Tensor {
		x := tensor.New(shape...)
		for i := range x.Data() {
			x.Data()[i] = specials[r.Intn(len(specials))]
		}
		return x
	}
	for _, k := range [][4]int{{2, 2, 2, 2}, {3, 2, 1, 1}} {
		for _, hw := range [][2]int{{8, 16}, {7, 18}} {
			for _, withConv := range []bool{false, true} {
				name := fmt.Sprintf("%dx%d/s%dx%d/%dx%d/conv=%v", k[0], k[1], k[2], k[3], hw[0], hw[1], withConv)
				build := func(poolFirst bool) *Sequential {
					var layers []Layer
					if withConv {
						conv, err := NewConv2D(Conv2DConfig{Name: "c", In: 3, Out: 4, KernelH: 3, KernelW: 3, SamePad: true}, mathx.NewRNG(9))
						if err != nil {
							t.Fatal(err)
						}
						layers = append(layers, conv)
					}
					pool, err := NewMaxPool2D("p", k[0], k[1], k[2], k[3])
					if err != nil {
						t.Fatal(err)
					}
					if poolFirst {
						layers = append(layers, pool, NewReLU("r"))
					} else {
						layers = append(layers, NewReLU("r"), pool)
					}
					s, err := NewSequential("tail", layers...)
					if err != nil {
						t.Fatal(err)
					}
					return s
				}
				drawn, run := build(false), build(true)
				r := mathx.NewRNG(17)
				x := draw(r, 3, 4, hw[0], hw[1])
				if withConv {
					x = tensor.Randn(r, 1, 3, 3, hw[0], hw[1])
					for i := range x.Data() {
						if r.Intn(50) == 0 {
							x.Data()[i] = specials[r.Intn(len(specials))]
						}
					}
				}
				for _, train := range []bool{false, true} {
					want, got := drawn.Forward(x, train), run.Forward(x, train)
					if !sameBits(got, want) {
						t.Fatalf("%s train=%v: forward differs:\n%v\n%v", name, train, got, want)
					}
					if !train {
						continue
					}
					g := draw(r, want.Shape()...)
					if want, got := drawn.Backward(g), run.Backward(g); !sameBits(got, want) {
						t.Fatalf("%s: input gradient differs:\n%v\n%v", name, got, want)
					}
				}
			}
		}
	}
}

func TestMaxPoolGradients(t *testing.T) {
	r := mathx.NewRNG(5)
	pool, err := NewMaxPool2D("p", 2, 2, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Distinct values avoid ties at the max, where the subgradient is
	// legitimately non-unique and finite differences disagree.
	x := tensor.Randn(r, 10, 2, 2, 4, 4)
	if _, err := CheckLayerGradients(pool, x, 1e-6, 1e-4); err != nil {
		t.Fatal(err)
	}
}

func TestDenseKnownValues(t *testing.T) {
	r := mathx.NewRNG(6)
	d, err := NewDense("d", 2, 2, nil, r)
	if err != nil {
		t.Fatal(err)
	}
	d.weight.Value.CopyFrom(tensor.FromSlice([]float64{1, 2, 3, 4}, 2, 2))
	d.bias.Value.CopyFrom(tensor.FromSlice([]float64{10, 20}, 2))
	x := tensor.FromSlice([]float64{1, 1}, 1, 2)
	got := d.Forward(x, false)
	want := tensor.FromSlice([]float64{1 + 3 + 10, 2 + 4 + 20}, 1, 2)
	if !got.Equal(want, 1e-12) {
		t.Fatalf("dense forward = %v, want %v", got, want)
	}
}

func TestDenseGradients(t *testing.T) {
	r := mathx.NewRNG(7)
	d, err := NewDense("d", 6, 4, nil, r)
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.Randn(r, 1, 3, 6)
	if _, err := CheckLayerGradients(d, x, 1e-5, 1e-6); err != nil {
		t.Fatal(err)
	}
}

func TestReLUForwardBackward(t *testing.T) {
	relu := NewReLU("r")
	x := tensor.FromSlice([]float64{-1, 0, 2, -3}, 1, 4)
	y := relu.Forward(x, true)
	if !y.Equal(tensor.FromSlice([]float64{0, 0, 2, 0}, 1, 4), 0) {
		t.Fatalf("relu forward = %v", y)
	}
	dx := relu.Backward(tensor.FromSlice([]float64{5, 5, 5, 5}, 1, 4))
	if !dx.Equal(tensor.FromSlice([]float64{0, 0, 5, 0}, 1, 4), 0) {
		t.Fatalf("relu backward = %v", dx)
	}
}

// TestReLUSpecialValues pins the elementwise rules of the branch-free
// ReLU: NaN of either sign and −0 become +0, +Inf and the smallest
// denormal pass with their bits, and the mask marks exactly the inputs
// that compare above zero — the rules of the branching form
// (v > 0 ? v : 0), which the random values below are also checked
// against bit for bit.
func TestReLUSpecialValues(t *testing.T) {
	negNaN := math.Float64frombits(math.Float64bits(math.NaN()) | 1<<63)
	xs := []float64{math.NaN(), negNaN, math.Copysign(0, -1), 0, math.Inf(1), math.Inf(-1),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, math.MaxFloat64, -math.MaxFloat64, 1, -1}
	r := mathx.NewRNG(41)
	for range 200 {
		xs = append(xs, r.Norm())
	}
	relu := NewReLU("r")
	y := relu.Forward(tensor.FromSlice(xs, len(xs)), true).Data()
	grads := make([]float64, len(xs))
	for i := range grads {
		grads[i] = float64(i + 1)
	}
	grads[0] = math.NaN()
	dx := relu.Backward(tensor.FromSlice(grads, len(xs))).Data()
	for i, v := range xs {
		want, wantDx := 0.0, 0.0
		if v > 0 {
			want, wantDx = v, grads[i]
		}
		if math.Float64bits(y[i]) != math.Float64bits(want) {
			t.Errorf("relu(%v) = %v (%#x), want %v", v, y[i], math.Float64bits(y[i]), want)
		}
		if relu.mask[i] != (v > 0) {
			t.Errorf("mask for %v = %v, want %v", v, relu.mask[i], v > 0)
		}
		if math.Float64bits(dx[i]) != math.Float64bits(wantDx) {
			t.Errorf("relu backward at %v = %v, want %v", v, dx[i], wantDx)
		}
	}
}

func TestFlattenRoundTrip(t *testing.T) {
	f := NewFlatten("f")
	x := tensor.FromSlice([]float64{1, 2, 3, 4, 5, 6, 7, 8}, 2, 2, 2, 1)
	y := f.Forward(x, true)
	if s := y.Shape(); s[0] != 2 || s[1] != 4 {
		t.Fatalf("flatten shape = %v", s)
	}
	dx := f.Backward(y)
	if !dx.Equal(x, 0) {
		t.Fatal("flatten backward did not restore shape/values")
	}
}
