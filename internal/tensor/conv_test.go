package tensor

import (
	"math"
	"slices"
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

// loweredOf returns image 0 of x padded and lowered under g: the
// padded image, and the K × oh·gw matrix Conv2DInto multiplies the
// filters with.
func loweredOf(x *Tensor, g ConvGeom) (padded, lowered []float64) {
	var ws ConvWork
	Conv2DInto(nil, &ws, x, New(1, g.taps()), New(1), g)
	padded = ws.Padded[:g.paddedLen()]
	l := g.grid()
	pg := l.size()
	lowered = make([]float64, g.taps()*pg)
	for t, at := range g.tapOffsets(nil) {
		l.lower(lowered[t*pg:(t+1)*pg], padded[at:])
	}
	return padded, lowered
}

func TestPaddedLoweringKnownValues(t *testing.T) {
	// 3×3 input, 2×2 kernel, unit stride, no pad: the grid is the
	// image's own 3 columns, the last one junk. Row (ky, kx) is the
	// image from offset ky·3 + kx on; the last row runs past the image,
	// and what runs past is cleared.
	x := FromSlice([]float64{
		1, 2, 3,
		4, 5, 6,
		7, 8, 9,
	}, 1, 1, 3, 3)
	g := ConvGeom{Channels: 1, Height: 3, Width: 3, KernelH: 2, KernelW: 2, StrideH: 1, StrideW: 1}
	padded, lowered := loweredOf(x, g)
	if !slices.Equal(padded, x.data) {
		t.Fatalf("padded = %v, want the input %v", padded, x.data)
	}
	want := []float64{
		1, 2, 3, 4, 5, 6,
		2, 3, 4, 5, 6, 7,
		4, 5, 6, 7, 8, 9,
		5, 6, 7, 8, 9, 0,
	}
	if !slices.Equal(lowered, want) {
		t.Fatalf("lowered = %v, want %v", lowered, want)
	}
	// Two channels, a 1×2 image, 3×3 kernel, pad 1: each plane sits
	// inside a zero border, 3 × 4, and the centre tap of channel 1 reads
	// its pixels under the 1 × 4 grid, two junk columns included.
	x = FromSlice([]float64{1, 2, 3, 4}, 1, 2, 1, 2)
	g = ConvGeom{Channels: 2, Height: 1, Width: 2, KernelH: 3, KernelW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
	padded, lowered = loweredOf(x, g)
	if want := []float64{
		0, 0, 0, 0, 0, 1, 2, 0, 0, 0, 0, 0,
		0, 0, 0, 0, 0, 3, 4, 0, 0, 0, 0, 0,
	}; !slices.Equal(padded, want) {
		t.Fatalf("padded = %v, want %v", padded, want)
	}
	if got := lowered[13*4 : 14*4]; !slices.Equal(got, []float64{3, 4, 0, 0}) {
		t.Fatalf("channel 1's centre tap row = %v, want [3 4 0 0]", got)
	}
	// Stride 2 with padding on a non-square input: the grid is the
	// 2 × 2 output itself, gathered; the top-left tap reads the border
	// except at position (1, 1).
	x = FromSlice([]float64{
		1, 2, 3, 4,
		5, 6, 7, 8,
		9, 10, 11, 12,
	}, 1, 1, 3, 4)
	g = ConvGeom{Channels: 1, Height: 3, Width: 4, KernelH: 3, KernelW: 3, StrideH: 2, StrideW: 2, PadH: 1, PadW: 1}
	_, lowered = loweredOf(x, g)
	if got := lowered[:4]; !slices.Equal(got, []float64{0, 0, 0, 6}) {
		t.Fatalf("top-left tap row = %v, want [0 0 0 6]", got)
	}
	if got := lowered[4*4 : 5*4]; !slices.Equal(got, []float64{1, 3, 9, 11}) {
		t.Fatalf("centre tap row = %v, want [1 3 9 11]", got)
	}
	if got := lowered[8*4 : 9*4]; !slices.Equal(got, []float64{6, 8, 0, 0}) {
		t.Fatalf("bottom-right tap row = %v, want [6 8 0 0]", got)
	}
}

// TestPaddedAddRowKnownValues: addRow is lower's adjoint. Each tap row
// of ones adds one to every padded cell that tap reads, so the interior
// counts how many (tap, output) pairs read each pixel.
func TestPaddedAddRowKnownValues(t *testing.T) {
	for _, tc := range []struct {
		g    ConvGeom
		want []float64
	}{
		{
			// 3×3 kernel, unit stride, pad 1 on 3×3: a corner is read by
			// 4 windows, an edge by 6, the centre by all 9.
			ConvGeom{Channels: 1, Height: 3, Width: 3, KernelH: 3, KernelW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1},
			[]float64{4, 6, 4, 6, 9, 6, 4, 6, 4},
		},
		{
			// 3×3 kernel, stride 2, pad 1 on 3×4 (the 2 × 2 output above):
			// row 1 and column 1 lie under both windows of their axis.
			ConvGeom{Channels: 1, Height: 3, Width: 4, KernelH: 3, KernelW: 3, StrideH: 2, StrideW: 2, PadH: 1, PadW: 1},
			[]float64{
				1, 2, 1, 1,
				2, 4, 2, 2,
				1, 2, 1, 1,
			},
		},
	} {
		g, l := tc.g, tc.g.grid()
		ones := make([]float64, l.size())
		for q := range ones {
			if q%l.w < l.ow {
				ones[q] = 1
			}
		}
		dxp := make([]float64, g.paddedLen())
		for _, at := range g.tapOffsets(nil) {
			l.addRow(dxp[at:], ones)
		}
		got := make([]float64, g.Channels*g.Height*g.Width)
		g.unpad(got, dxp)
		if !slices.Equal(got, tc.want) {
			t.Fatalf("%+v: interior counts = %v, want %v", g, got, tc.want)
		}
	}
}

// TestConvScratchLeavesNoTrace: the three kernels write every workspace
// element they read, so a stale workspace — NaN in every element of its
// padded input and its scratch — gives the bits of a fresh one.
func TestConvScratchLeavesNoTrace(t *testing.T) {
	r := mathx.NewRNG(5)
	for i := 0; i < 20; i++ {
		g := randomGeom(r)
		n, outC := 1+r.Intn(3), 1+r.Intn(5)
		x := Randn(r, 1, n, g.Channels, g.Height, g.Width)
		w, bias := Randn(r, 1, outC, g.taps()), Randn(r, 1, outC)
		grad := Randn(r, 1, n, outC, g.OutHeight(), g.OutWidth())
		stale := func(s []float64) {
			for j := range s {
				s[j] = math.NaN()
			}
		}
		run := func(ws *ConvWork, poison bool) []float64 {
			out := Conv2DInto(nil, ws, x, w, bias, g)
			if poison {
				stale(ws.Scratch)
			}
			dw, db := New(outC, g.taps()), New(outC)
			AddConv2DParamGrads(dw, db, grad, ws, g)
			if poison {
				stale(ws.Scratch)
			}
			dx := Conv2DInputGradInto(nil, ws, grad, w, g)
			return slices.Concat(out.data, dw.data, db.data, dx.data)
		}
		want := run(&ConvWork{}, false)
		padded, scratch := make([]float64, 1<<14), make([]float64, 1<<14)
		stale(padded)
		stale(scratch)
		got := run(&ConvWork{Padded: padded[:0], Scratch: scratch[:0]}, true)
		for j, v := range got {
			if math.Float64bits(v) != math.Float64bits(want[j]) {
				t.Fatalf("%+v: element %d = %v over stale scratch, %v over fresh", g, j, v, want[j])
			}
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
		var ws ConvWork
		out := Conv2DInto(nil, &ws, x, w, New(outC), g)
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
		AddConv2DParamGrads(dw, db, y, &ws, g)
		dx := Conv2DInputGradInto(nil, &ws, y, w, g)
		return mathx.AlmostEqual(lhs, x.Reshape(-1).Dot(dx.Reshape(-1)), 1e-9) &&
			mathx.AlmostEqual(lhs, w.Reshape(-1).Dot(dw.Reshape(-1)), 1e-9) &&
			mathx.AlmostEqual(y.Sum(), db.Sum(), 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
