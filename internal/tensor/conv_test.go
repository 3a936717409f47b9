package tensor

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/stsl/stsl/internal/mathx"
)

func TestConvGeomOutputDims(t *testing.T) {
	cases := []struct {
		name       string
		g          ConvGeom
		outH, outW int
	}{
		{
			name: "same-pad 3x3 stride 1",
			g:    ConvGeom{Channels: 3, Height: 32, Width: 32, KernelH: 3, KernelW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1},
			outH: 32, outW: 32,
		},
		{
			name: "2x2 pool stride 2",
			g:    ConvGeom{Channels: 16, Height: 32, Width: 32, KernelH: 2, KernelW: 2, StrideH: 2, StrideW: 2},
			outH: 16, outW: 16,
		},
		{
			name: "valid 5x5",
			g:    ConvGeom{Channels: 1, Height: 28, Width: 28, KernelH: 5, KernelW: 5, StrideH: 1, StrideW: 1},
			outH: 24, outW: 24,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.g.Validate(); err != nil {
				t.Fatalf("Validate: %v", err)
			}
			if got := tc.g.OutHeight(); got != tc.outH {
				t.Fatalf("OutHeight = %d, want %d", got, tc.outH)
			}
			if got := tc.g.OutWidth(); got != tc.outW {
				t.Fatalf("OutWidth = %d, want %d", got, tc.outW)
			}
		})
	}
}

func TestConvGeomValidateRejects(t *testing.T) {
	bad := []ConvGeom{
		{},
		{Channels: 1, Height: 4, Width: 4, KernelH: 0, KernelW: 3, StrideH: 1, StrideW: 1},
		{Channels: 1, Height: 4, Width: 4, KernelH: 3, KernelW: 3, StrideH: 0, StrideW: 1},
		{Channels: 1, Height: 4, Width: 4, KernelH: 3, KernelW: 3, StrideH: 1, StrideW: 1, PadH: -1},
		{Channels: 1, Height: 2, Width: 2, KernelH: 5, KernelW: 5, StrideH: 1, StrideW: 1},
	}
	for i, g := range bad {
		if err := g.Validate(); err == nil {
			t.Fatalf("case %d: Validate accepted invalid geometry %+v", i, g)
		}
	}
}

// columnsOf returns the column matrices Conv2DInto leaves for x under g,
// for a single filter of zeros.
func columnsOf(x *Tensor, g ConvGeom) *Tensor {
	_, cols := Conv2DInto(nil, nil, x, New(1, g.taps()), New(1), g)
	return cols
}

func TestIm2ColIdentityKernel(t *testing.T) {
	// A 1x1 kernel with stride 1 and no padding: the one column-matrix
	// row per channel is that channel's pixels.
	x := FromSlice([]float64{
		1, 2,
		3, 4,
		5, 6,
		7, 8,
	}, 1, 2, 2, 2)
	g := ConvGeom{Channels: 2, Height: 2, Width: 2, KernelH: 1, KernelW: 1, StrideH: 1, StrideW: 1}
	cols := columnsOf(x, g)
	want := FromSlice([]float64{1, 2, 3, 4, 5, 6, 7, 8}, 1, 2, 4)
	if !cols.Equal(want, 0) {
		t.Fatalf("columns = %v, want %v", cols, want)
	}
}

func TestIm2ColKnownValues(t *testing.T) {
	// 3x3 input, 2x2 kernel, stride 1, no pad: row (ky, kx) holds the
	// input shifted by (ky, kx) under the 4 output positions.
	x := FromSlice([]float64{
		1, 2, 3,
		4, 5, 6,
		7, 8, 9,
	}, 1, 1, 3, 3)
	g := ConvGeom{Channels: 1, Height: 3, Width: 3, KernelH: 2, KernelW: 2, StrideH: 1, StrideW: 1}
	cols := columnsOf(x, g)
	want := FromSlice([]float64{
		1, 2, 4, 5,
		2, 3, 5, 6,
		4, 5, 7, 8,
		5, 6, 8, 9,
	}, 1, 4, 4)
	if !cols.Equal(want, 0) {
		t.Fatalf("columns = %v, want %v", cols, want)
	}
	// Stride 2 with padding on a non-square input: output 2×2, and the
	// top-left tap reads the padding except at position (1, 1).
	x = FromSlice([]float64{
		1, 2, 3, 4,
		5, 6, 7, 8,
		9, 10, 11, 12,
	}, 1, 1, 3, 4)
	g = ConvGeom{Channels: 1, Height: 3, Width: 4, KernelH: 3, KernelW: 3, StrideH: 2, StrideW: 2, PadH: 1, PadW: 1}
	cols = columnsOf(x, g)
	if got := cols.Data()[:4]; got[0] != 0 || got[1] != 0 || got[2] != 0 || got[3] != 6 {
		t.Fatalf("top-left tap row = %v, want [0 0 0 6]", got)
	}
	if got := cols.Data()[4*4 : 5*4]; got[0] != 1 || got[1] != 3 || got[2] != 9 || got[3] != 11 {
		t.Fatalf("centre tap row = %v, want [1 3 9 11]", got)
	}
}

func TestIm2ColPaddingZeros(t *testing.T) {
	x := FromSlice([]float64{5}, 1, 1, 1, 1)
	g := ConvGeom{Channels: 1, Height: 1, Width: 1, KernelH: 3, KernelW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
	// Over a stale workspace: one output position, nine taps; the centre
	// tap is the pixel, the rest padding zeros.
	stale := New(1, 9, 1)
	stale.Fill(math.NaN())
	_, cols := Conv2DInto(nil, stale, x, New(1, 9), New(1), g)
	for i, v := range cols.Data() {
		want := 0.0
		if i == 4 {
			want = 5
		}
		if v != want {
			t.Fatalf("cols[%d] = %v, want %v", i, v, want)
		}
	}
}

// randomGeom draws a valid convolution geometry: 1–3 channels, 1–3 kernel
// sides, strides 1–2, pads 0–2 (a pad may exceed the kernel), inputs
// from the kernel's size up.
func randomGeom(r *mathx.RNG) ConvGeom {
	for {
		g := ConvGeom{
			Channels: 1 + r.Intn(3),
			KernelH:  1 + r.Intn(3),
			KernelW:  1 + r.Intn(3),
			StrideH:  1 + r.Intn(2),
			StrideW:  1 + r.Intn(2),
			PadH:     r.Intn(3),
			PadW:     r.Intn(3),
		}
		g.Height, g.Width = g.KernelH+r.Intn(7), g.KernelW+r.Intn(7)
		if g.Validate() == nil {
			return g
		}
	}
}

// TestConvInputGradAdjointProperty: the gradient kernels are the adjoints
// of the convolution. With a zero bias, <conv(x; w), y> equals both
// <x, Conv2DInputGradInto(y)> and <w, dW(y)>, for random geometries and
// output gradients that are dense or mostly zero.
func TestConvInputGradAdjointProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := mathx.NewRNG(seed)
		g := randomGeom(r)
		n, outC := 1+r.Intn(3), 1+r.Intn(5)
		x := Randn(r, 1, n, g.Channels, g.Height, g.Width)
		w := Randn(r, 1, outC, g.taps())
		out, cols := Conv2DInto(nil, nil, x, w, New(outC), g)
		y := Randn(r, 1, out.Shape()...)
		if r.Intn(2) == 0 {
			for i := range y.data {
				if r.Intn(4) != 0 {
					y.data[i] = 0
				}
			}
		}
		lhs := out.Reshape(-1).Dot(y.Reshape(-1))
		dw, db := New(outC, g.taps()), New(outC)
		AddConv2DParamGrads(dw, db, y, cols)
		dx := Conv2DInputGradInto(nil, cols, y, w, g)
		return mathx.AlmostEqual(lhs, x.Reshape(-1).Dot(dx.Reshape(-1)), 1e-9) &&
			mathx.AlmostEqual(lhs, w.Reshape(-1).Dot(dw.Reshape(-1)), 1e-9) &&
			mathx.AlmostEqual(y.Sum(), db.Sum(), 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
