package tensor

import (
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

func TestIm2ColIdentityKernel(t *testing.T) {
	// A 1x1 kernel with stride 1 and no padding: im2col output rows are
	// exactly the input pixels, channel-interleaved per position.
	x := FromSlice([]float64{
		1, 2,
		3, 4,
	}, 1, 1, 2, 2)
	g := ConvGeom{Channels: 1, Height: 2, Width: 2, KernelH: 1, KernelW: 1, StrideH: 1, StrideW: 1}
	cols := Im2ColInto(nil, x, g)
	want := FromSlice([]float64{1, 2, 3, 4}, 4, 1)
	if !cols.Equal(want, 0) {
		t.Fatalf("Im2Col = %v, want %v", cols, want)
	}
}

func TestIm2ColKnownValues(t *testing.T) {
	// 3x3 input, 2x2 kernel, stride 1, no pad → 4 receptive fields.
	x := FromSlice([]float64{
		1, 2, 3,
		4, 5, 6,
		7, 8, 9,
	}, 1, 1, 3, 3)
	g := ConvGeom{Channels: 1, Height: 3, Width: 3, KernelH: 2, KernelW: 2, StrideH: 1, StrideW: 1}
	cols := Im2ColInto(nil, x, g)
	want := FromSlice([]float64{
		1, 2, 4, 5,
		2, 3, 5, 6,
		4, 5, 7, 8,
		5, 6, 8, 9,
	}, 4, 4)
	if !cols.Equal(want, 0) {
		t.Fatalf("Im2Col = %v, want %v", cols, want)
	}
}

func TestIm2ColPaddingZeros(t *testing.T) {
	x := FromSlice([]float64{5}, 1, 1, 1, 1)
	g := ConvGeom{Channels: 1, Height: 1, Width: 1, KernelH: 3, KernelW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
	cols := Im2ColInto(nil, x, g)
	// One receptive field; centre element is the pixel, rest zeros.
	if cols.Size() != 9 {
		t.Fatalf("cols size = %d", cols.Size())
	}
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

func TestCol2ImAdjointProperty(t *testing.T) {
	// The defining property of the adjoint: <Im2Col(x), y> == <x, Col2Im(y)>
	// for all x, y. Verified over random tensors and geometries.
	f := func(seed uint64) bool {
		r := mathx.NewRNG(seed)
		g := ConvGeom{
			Channels: 1 + r.Intn(3),
			Height:   3 + r.Intn(6),
			Width:    3 + r.Intn(6),
			KernelH:  1 + r.Intn(3),
			KernelW:  1 + r.Intn(3),
			StrideH:  1 + r.Intn(2),
			StrideW:  1 + r.Intn(2),
			PadH:     r.Intn(2),
			PadW:     r.Intn(2),
		}
		if g.Validate() != nil {
			return true
		}
		n := 1 + r.Intn(2)
		x := Randn(r, 1, n, g.Channels, g.Height, g.Width)
		cols := Im2ColInto(nil, x, g)
		y := Randn(r, 1, cols.Shape()...)
		lhs := cols.Dot(y)
		rhs := x.Reshape(-1).Dot(Col2ImInto(nil, y, n, g).Reshape(-1))
		return mathx.AlmostEqual(lhs, rhs, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestPad2D(t *testing.T) {
	x := FromSlice([]float64{1, 2, 3, 4}, 1, 1, 2, 2)
	p := Pad2D(x, 1, 1)
	if got := p.Shape(); got[2] != 4 || got[3] != 4 {
		t.Fatalf("padded shape = %v", got)
	}
	if p.At(0, 0, 0, 0) != 0 || p.At(0, 0, 3, 3) != 0 {
		t.Fatal("padding not zero")
	}
	if p.At(0, 0, 1, 1) != 1 || p.At(0, 0, 2, 2) != 4 {
		t.Fatal("interior values misplaced")
	}
	if got := p.Sum(); got != x.Sum() {
		t.Fatalf("padding changed sum: %v vs %v", got, x.Sum())
	}
}

func TestPad2DZeroIsClone(t *testing.T) {
	x := FromSlice([]float64{1, 2, 3, 4}, 1, 1, 2, 2)
	p := Pad2D(x, 0, 0)
	if !p.Equal(x, 0) {
		t.Fatal("Pad2D(0,0) changed values")
	}
	p.Set(9, 0, 0, 0, 0)
	if x.At(0, 0, 0, 0) == 9 {
		t.Fatal("Pad2D(0,0) aliases input")
	}
}
