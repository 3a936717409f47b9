//go:build amd64 && !purego

package tensor

import (
	"fmt"
	"math"
	"testing"

	"github.com/stsl/stsl/internal/mathx"
)

// TestTileTwin checks the AVX2 tiles against gemmGo, their Go twin, over
// every row count 1…9, every column count 1…17 (every n mod 8), tap
// counts 1, 2, 27 and 216, both layouts of A (the forward's rows of
// filters, rs = kk, and the input gradient's transposed filters,
// ts = m), with and without start values. Operands mix normal values
// with ±Inf, −0, subnormals, values whose products and sums overflow,
// and NaN. Every non-NaN element must carry the twin's bits, NaN must
// appear exactly where the twin has it, and nothing past m×n may be
// written.
func TestTileTwin(t *testing.T) {
	if !hasAVX2() {
		t.Skip("no AVX2 on this CPU")
	}
	special := []float64{math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0, 5e-324, -2.5e-310, 1e308, -1.7e308, math.NaN()}
	r := mathx.NewRNG(7)
	draw := func(n int, pSpecial float64) []float64 {
		s := make([]float64, n)
		for i := range s {
			if r.Float64() < pSpecial {
				s[i] = special[r.Intn(len(special))]
			} else {
				s[i] = r.Norm()
			}
		}
		return s
	}
	const guard = 3
	for m := 1; m <= 9; m++ {
		for n := 1; n <= 17; n++ {
			for _, kk := range []int{1, 2, 27, 216} {
				for _, layout := range [][2]int{{kk, 1}, {1, m}} {
					for _, p := range []float64{0, 0.01, 0.3} {
						rs, ts := layout[0], layout[1]
						a := draw((m-1)*rs+(kk-1)*ts+1, p)
						b := draw(kk*n, p)
						for _, init := range [][]float64{nil, draw(m, p)} {
							want := make([]float64, m*n)
							gemmGo(want, a, b, init, m, kk, n, rs, ts)
							got := draw(m*n+guard, 0)
							tail := append([]float64(nil), got[m*n:]...)
							gemmAVX2(got[:m*n+guard], a, b, init, m, kk, n, rs, ts)
							name := fmt.Sprintf("m=%d n=%d kk=%d rs=%d ts=%d p=%v init=%v", m, n, kk, rs, ts, p, init != nil)
							for i, w := range want {
								g := got[i]
								if math.IsNaN(w) != math.IsNaN(g) || !math.IsNaN(w) && math.Float64bits(w) != math.Float64bits(g) {
									t.Fatalf("%s: element %d = %v (%#x), twin %v (%#x)", name, i, g, math.Float64bits(g), w, math.Float64bits(w))
								}
							}
							for i, v := range tail {
								if math.Float64bits(got[m*n+i]) != math.Float64bits(v) {
									t.Fatalf("%s: wrote past the product at %d", name, m*n+i)
								}
							}
						}
					}
				}
			}
		}
	}
}

// TestTileTwinShortOperands: a destination or operand too short for the
// product panics in gemmAVX2 before any tile runs, so the destination
// is untouched.
func TestTileTwinShortOperands(t *testing.T) {
	const m, kk, n = 8, 5, 16
	full := func(k int) []float64 { return make([]float64, k) }
	cases := []struct {
		name            string
		out, a, b, init []float64
		rs, ts          int
	}{
		{"out", full(m*n - 1), full(m * kk), full(kk * n), full(m), kk, 1},
		{"a", full(m * n), full(m*kk - 1), full(kk * n), full(m), kk, 1},
		{"transposed a", full(m * n), full(m*kk - 1), full(kk * n), full(m), 1, m},
		{"b", full(m * n), full(m * kk), full(kk*n - 1), full(m), kk, 1},
		{"init", full(m * n), full(m * kk), full(kk * n), full(m - 1), kk, 1},
	}
	for _, c := range cases {
		for i := range c.out {
			c.out[i] = 42
		}
		for i := range c.b {
			c.b[i] = 1
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s short by one: no panic", c.name)
				}
			}()
			gemmAVX2(c.out, c.a, c.b, c.init, m, kk, n, c.rs, c.ts)
		}()
		for i, v := range c.out {
			if v != 42 {
				t.Fatalf("%s short by one: out[%d] written before the panic", c.name, i)
			}
		}
	}
}

// BenchmarkConvLayerTile times one training Forward+Backward of each
// conv layer of expt.SmallScale's network (batch 16, 3×3 same-padded
// filters, the output gradient 75 % zeros as max-pool backward leaves
// it) on the tensor kernels the layer calls, once on the AVX2 tile and
// once on the Go tile gemm falls back to on other hosts.
func BenchmarkConvLayerTile(b *testing.B) {
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
		for _, tile := range []struct {
			name string
			avx2 bool
		}{{"avx2", true}, {"go", false}} {
			if tile.avx2 && !hasAVX2() {
				continue
			}
			b.Run(fmt.Sprintf("conv%d/%s", i+1, tile.name), func(b *testing.B) {
				useAVX2 = tile.avx2
				var out, dx *Tensor
				var ws ConvWork
				for n := 0; n < b.N; n++ {
					out = Conv2DInto(out, &ws, x, w, bias, g)
					AddConv2DParamGrads(dw, db, grad, &ws, g)
					dx = Conv2DInputGradInto(dx, &ws, grad, w, g)
				}
			})
		}
		inC, hw = outC, hw/2
	}
}
