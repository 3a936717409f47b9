//go:build amd64 && !purego

package tensor

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"github.com/stsl/stsl/internal/mathx"
)

// convSpecials are the values the backward kernels' twin tests mix in:
// both zeros, subnormals, infinities, values whose products overflow,
// and NaN.
var convSpecials = []float64{math.Copysign(0, -1), 0, 5e-324, -2.5e-310, math.Inf(1), math.Inf(-1), 1e308, -1.7e308, math.NaN()}

// drawSpecial returns n values: with probability pZero a zero of either
// sign, with probability pSpecial one of convSpecials, else normal.
func drawSpecial(r *mathx.RNG, n int, pZero, pSpecial float64) []float64 {
	s := make([]float64, n)
	for i := range s {
		switch u := r.Float64(); {
		case u < pZero:
			s[i] = convSpecials[r.Intn(2)]
		case u < pZero+pSpecial:
			s[i] = convSpecials[r.Intn(len(convSpecials))]
		default:
			s[i] = r.Norm()
		}
	}
	return s
}

// twinBits reports whether got and want carry the same bits, counting
// any NaN as equal to any NaN (the kernels and their twins may keep
// different NaN payloads), and returns the first index that differs.
func twinBits(got, want []float64) (int, bool) {
	if len(got) != len(want) {
		return min(len(got), len(want)), false
	}
	for i, w := range want {
		g := got[i]
		if math.IsNaN(w) != math.IsNaN(g) || !math.IsNaN(w) && math.Float64bits(w) != math.Float64bits(g) {
			return i, false
		}
	}
	return 0, true
}

// TestTapRowsTwin holds the tap-row kernel to addTapDotsGo: kW 1–4 on
// the kernel and 5 on Go, 1–9 tap rows (passes of four and rows left
// over), lists of 0 to nzChunk entries whose last offset reaches
// the buffer's last element a tap reads, with the kernel's tail past it,
// over values and gradients with ±0, NaN, ±Inf and subnormals. dw and
// the returned bias sum must carry the twin's bits.
func TestTapRowsTwin(t *testing.T) {
	if !hasAVX2() {
		t.Skip("no AVX2 on this CPU")
	}
	r := mathx.NewRNG(11)
	for kw := 1; kw <= 5; kw++ {
		for rows := 1; rows <= 7; rows++ {
			for _, n := range []int{0, 1, 2, 3, 5, 17, 64, nzChunk - 1, nzChunk} {
				// Rows rowStep apart; the last tap of the last row at an
				// offset of span reads the last element before the tail.
				rowStep := kw + r.Intn(4)
				taps := make([]int, 0, rows*kw)
				for row := 0; row < rows; row++ {
					for kx := 0; kx < kw; kx++ {
						taps = append(taps, row*rowStep+kx)
					}
				}
				span := 1 + r.Intn(40)
				last := taps[len(taps)-1] + span
				xp := append(drawSpecial(r, last+1, 0.1, 0.05), make([]float64, padTail)...)
				v := drawSpecial(r, n, 0, 0.1)
				off := make([]int, n)
				for j := range off {
					off[j] = r.Intn(span + 1)
				}
				if n > 0 {
					off[r.Intn(n)] = span
				}
				dw0 := drawSpecial(r, len(taps), 0.2, 0.05)
				db0 := drawSpecial(r, 1, 0.3, 0.1)[0]
				name := fmt.Sprintf("kw=%d rows=%d n=%d", kw, rows, n)

				want := slices.Clone(dw0)
				wantDB := addTapDotsGo(want, xp, v, off, taps, db0)
				got := slices.Clone(dw0)
				gotDB, ok := tapRows(got, xp, v, off, taps, kw, db0)
				if ok != (kw <= 4 && n > 0) {
					t.Fatalf("%s: kernel ran = %v", name, ok)
				}
				if !ok {
					gotDB = addTapDots(got, xp, v, off, taps, kw, db0)
				}
				if i, same := twinBits(got, want); !same {
					t.Fatalf("%s: dw[%d] = %v, twin %v", name, i, got[i], want[i])
				}
				if _, same := twinBits([]float64{gotDB}, []float64{wantDB}); !same {
					t.Fatalf("%s: bias sum %v, twin %v", name, gotDB, wantDB)
				}
			}
		}
	}
}

// TestTapRowsTwinRejectsOutOfRange: an offset whose four-lane load would
// leave the buffer, at either end, panics before the kernel writes dw.
func TestTapRowsTwinRejectsOutOfRange(t *testing.T) {
	if !hasAVX2() {
		t.Skip("no AVX2 on this CPU")
	}
	taps := []int{0, 1, 2, 10, 11, 12}
	xp := make([]float64, 30)
	for _, off := range [][]int{{0, 30 - 4 - 10 + 1}, {-1, 3}} {
		dw := []float64{1, 2, 3, 4, 5, 6}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("offsets %v: no panic", off)
				}
			}()
			tapRows(dw, xp, []float64{1, 1}, off, taps, 3, 0)
		}()
		if !slices.Equal(dw, []float64{1, 2, 3, 4, 5, 6}) {
			t.Fatalf("offsets %v: dw written before the panic: %v", off, dw)
		}
	}
}

// TestNzScanTwin holds collect, the kernel's whole quads and collectGo's
// rest, to collectGo alone, driven as the filter gradient drives it:
// every row read to its end, the list flushed whenever it is full.
// Rows of 0–41 entries and of 1024, from empty to dense, with ±0, NaN,
// ±Inf and subnormals, start from every count near a full list, so
// lists fill within a quad, at its end and between quads. Every call
// must read as many entries and leave the same count, and every flushed
// list and the last one must hold the same entries.
func TestNzScanTwin(t *testing.T) {
	if !hasAVX2() {
		t.Skip("no AVX2 on this CPU")
	}
	r := mathx.NewRNG(13)
	lens := []int{1024}
	for n := 0; n <= 41; n++ {
		lens = append(lens, n)
	}
	type run struct {
		flushed [][]float64
		offs    [][]int
		reads   []int
		n       int
	}
	drive := func(row []float64, pos []int, base, n int, collect func(*nzList, []float64, []int, int, int) (int, int)) run {
		var l nzList
		var out run
		for len(row) > 0 {
			var k int
			k, n = collect(&l, row, pos, base, n)
			out.reads = append(out.reads, k)
			row, pos = row[k:], pos[k:]
			if n == nzChunk {
				out.flushed = append(out.flushed, slices.Clone(l.v[:]))
				out.offs = append(out.offs, slices.Clone(l.off[:]))
				n = 0
			}
		}
		out.flushed = append(out.flushed, slices.Clone(l.v[:n]))
		out.offs = append(out.offs, slices.Clone(l.off[:n]))
		out.n = n
		return out
	}
	for _, m := range lens {
		for _, pZero := range []float64{0, 0.25, 0.75, 1} {
			for _, start := range []int{0, 1, 63, nzChunk - 9, nzChunk - 5, nzChunk - 4, nzChunk - 3, nzChunk - 2, nzChunk - 1} {
				row := drawSpecial(r, m, pZero, 0.15)
				pos := make([]int, m)
				for i := range pos {
					pos[i] = 3*i + r.Intn(3)
				}
				base := r.Intn(1000)
				name := fmt.Sprintf("len=%d zeros=%v start=%d", m, pZero, start)
				want := drive(row, pos, base, start, (*nzList).collectGo)
				got := drive(row, pos, base, start, (*nzList).collect)
				if !slices.Equal(got.reads, want.reads) || got.n != want.n || len(got.flushed) != len(want.flushed) {
					t.Fatalf("%s: reads %v count %d, twin %v count %d", name, got.reads, got.n, want.reads, want.n)
				}
				for c := range want.flushed {
					if i, same := twinBits(got.flushed[c], want.flushed[c]); !same {
						t.Fatalf("%s: list %d entry %d = %v, twin %v", name, c, i, got.flushed[c][i], want.flushed[c][i])
					}
					if !slices.Equal(got.offs[c], want.offs[c]) {
						t.Fatalf("%s: list %d offsets %v, twin %v", name, c, got.offs[c], want.offs[c])
					}
				}
			}
		}
	}
}

// TestTapRowAddTwin holds the tap-row add kernel to addRow tap by tap
// on a wide grid: kW 1–5, rows of 1–41 elements (every whole-row span
// mod 16 and mod 4), destinations that run past the rows' reach (which
// must stay untouched) and ones that cut it short, as the last tap row
// of a padded image does, with ±0, NaN, ±Inf and subnormals on both
// sides.
func TestTapRowAddTwin(t *testing.T) {
	if !hasAVX2() {
		t.Skip("no AVX2 on this CPU")
	}
	r := mathx.NewRNG(17)
	for kw := 1; kw <= 5; kw++ {
		for pg := 1; pg <= 41; pg++ {
			l := grid{oh: 1, ow: pg, sh: 1, sw: 1, wp: pg, w: pg, wide: true}
			for _, dl := range []int{pg + kw + 2, pg + kw - 1, max(kw, pg+kw-3), kw} {
				rows := drawSpecial(r, kw*pg, 0.2, 0.2)
				dst := drawSpecial(r, dl, 0.2, 0.2)
				want := slices.Clone(dst)
				for kx := 0; kx < kw; kx++ {
					l.addRow(want[kx:], rows[kx*pg:(kx+1)*pg])
				}
				got := slices.Clone(dst)
				if !tapRowAdd(got, rows, pg, kw) {
					t.Fatal("kernel did not run")
				}
				if i, same := twinBits(got, want); !same {
					t.Fatalf("kw=%d pg=%d len(dst)=%d: element %d = %v, twin %v", kw, pg, dl, i, got[i], want[i])
				}
			}
		}
	}
}

// TestConvBackwardTwin runs the whole backward — the filter and bias
// gradient and the input gradient — on the kernels and on their Go
// twins (useAVX2 off, which also puts gemm on gemmGo) over random
// geometries: kernel widths 1–5 (5 on Go), heights 1–3, strides 1 and
// 2, pads 0–2, batches large enough for several lists per channel, and
// output gradients from dense to 90 % zero with ±0, NaN, ±Inf and
// subnormals in them and in the input. Every element must carry the
// twin's bits.
func TestConvBackwardTwin(t *testing.T) {
	if !hasAVX2() {
		t.Skip("no AVX2 on this CPU")
	}
	defer func(old bool) { useAVX2 = old }(useAVX2)
	r := mathx.NewRNG(19)
	for i := 0; i < 60; i++ {
		kh, kw := 1+r.Intn(3), 1+r.Intn(5)
		g := ConvGeom{Channels: 1 + r.Intn(3), KernelH: kh, KernelW: kw, StrideH: 1 + r.Intn(2), StrideW: 1 + r.Intn(2), PadH: r.Intn(3), PadW: r.Intn(3)}
		g.Height, g.Width = kh+r.Intn(9), kw+r.Intn(9)
		n, outC := 1+r.Intn(12), 1+r.Intn(4)
		x := FromSlice(drawSpecial(r, n*g.Channels*g.Height*g.Width, 0.1, 0.02), n, g.Channels, g.Height, g.Width)
		w := FromSlice(drawSpecial(r, outC*g.taps(), 0, 0.02), outC, g.taps())
		pZero := []float64{0, 0.5, 0.75, 0.9}[r.Intn(4)]
		grad := FromSlice(drawSpecial(r, n*outC*g.OutHeight()*g.OutWidth(), pZero, 0.02), n, outC, g.OutHeight(), g.OutWidth())
		dw0, db0 := drawSpecial(r, outC*g.taps(), 0.3, 0), drawSpecial(r, outC, 0.3, 0)
		run := func(avx2 bool) []float64 {
			useAVX2 = avx2
			var ws ConvWork
			Conv2DInto(nil, &ws, x, w, New(outC), g)
			dw, db := FromSlice(slices.Clone(dw0), outC, g.taps()), FromSlice(slices.Clone(db0), outC)
			AddConv2DParamGrads(dw, db, grad, &ws, g)
			dx := Conv2DInputGradInto(nil, &ws, grad, w, g)
			return slices.Concat(dw.data, db.data, dx.data)
		}
		want, got := run(false), run(true)
		if j, same := twinBits(got, want); !same {
			t.Fatalf("%+v n=%d outC=%d zeros=%v: element %d = %v, twin %v", g, n, outC, pZero, j, got[j], want[j])
		}
	}
}

// BenchmarkConvBackward times the two halves of each SmallScale conv
// layer's backward apart (batch 16, 3×3 same-padded filters, the output
// gradient 75 % zeros, one nonzero per 2×2 window as max-pool backward
// leaves it): the filter and bias gradient (AddConv2DParamGrads) and the
// input gradient (Conv2DInputGradInto), each once on the AVX2 kernels
// and once on their Go twins.
func BenchmarkConvBackward(b *testing.B) {
	defer func(old bool) { useAVX2 = old }(useAVX2)
	inC, hw := 3, 32
	for i, outC := range []int{8, 12, 16, 24, 32} {
		r := mathx.NewRNG(uint64(i + 1))
		g := ConvGeom{Channels: inC, Height: hw, Width: hw, KernelH: 3, KernelW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
		x := Randn(r, 1, 16, inC, hw, hw)
		w, bias := Randn(r, 0.1, outC, g.taps()), New(outC)
		dw, db := New(outC, g.taps()), New(outC)
		grad := New(16, outC, hw, hw)
		for plane := 0; plane < 16*outC; plane++ {
			for y := 0; y < hw; y += 2 {
				for xx := 0; xx < hw; xx += 2 {
					grad.data[plane*hw*hw+(y+r.Intn(2))*hw+xx+r.Intn(2)] = r.Norm()
				}
			}
		}
		var ws ConvWork
		Conv2DInto(nil, &ws, x, w, bias, g)
		for _, k := range []struct {
			name string
			avx2 bool
		}{{"avx2", true}, {"go", false}} {
			if k.avx2 && !hasAVX2() {
				continue
			}
			b.Run(fmt.Sprintf("conv%d/filter/%s", i+1, k.name), func(b *testing.B) {
				useAVX2 = k.avx2
				for n := 0; n < b.N; n++ {
					AddConv2DParamGrads(dw, db, grad, &ws, g)
				}
			})
			b.Run(fmt.Sprintf("conv%d/input/%s", i+1, k.name), func(b *testing.B) {
				useAVX2 = k.avx2
				var dx *Tensor
				for n := 0; n < b.N; n++ {
					dx = Conv2DInputGradInto(dx, &ws, grad, w, g)
				}
			})
		}
		inC, hw = outC, hw/2
	}
}
