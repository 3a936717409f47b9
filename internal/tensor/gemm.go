package tensor

// The convolution's two dense products, the forward W·cols and the
// input gradient Wᵀ·grad, are one kernel: gemm writes out (m × n) =
// init + A·B for B (kk × n) and an A (m × kk) addressed by two strides,
// element (i, t) at a[i·rs + t·ts], so that W serves as A (rs = kk,
// ts = 1) and as Aᵀ (rs = 1, ts = m) without a transposed copy. A nil
// init starts every row at +0. Every element is its start value plus
// its kk products, each rounded, then added one at a time in ascending
// t: no fused multiply-add and no reassociation, so every tile that
// computes an element computes the same bits. gemm picks, once per
// process, the AVX2 tile on an amd64 host that has it (gemm_amd64.go),
// and gemmGo, the scalar tile, everywhere else. gemmGo is also the
// reference the AVX2 tile is tested against.

// gemmGo is gemm in Go: a 2×4 register tile whose innermost loop runs
// over the kk taps, so a product with few columns — a 2×2 output — runs
// long loops too, and dotColumn for the rows and columns the tile does
// not cover. The float64 conversions keep the compiler from fusing a
// multiply and an add on the platforms where it may.
func gemmGo(out, a, b, init []float64, m, kk, n, rs, ts int) {
	n4 := n &^ 3
	i := 0
	for ; i+2 <= m; i += 2 {
		a0, a1 := a[i*rs:], a[(i+1)*rs:]
		o0, o1 := out[i*n:(i+1)*n], out[(i+1)*n:(i+2)*n]
		i0, i1 := startValue(init, i), startValue(init, i+1)
		for j := 0; j < n4; j += 4 {
			s00, s01, s02, s03 := i0, i0, i0, i0
			s10, s11, s12, s13 := i1, i1, i1, i1
			bo, ao := j, 0
			for t := 0; t < kk; t++ {
				x, y := a0[ao], a1[ao]
				bv := b[bo : bo+4 : bo+4]
				s00 += float64(x * bv[0])
				s01 += float64(x * bv[1])
				s02 += float64(x * bv[2])
				s03 += float64(x * bv[3])
				s10 += float64(y * bv[0])
				s11 += float64(y * bv[1])
				s12 += float64(y * bv[2])
				s13 += float64(y * bv[3])
				bo += n
				ao += ts
			}
			o0[j], o0[j+1], o0[j+2], o0[j+3] = s00, s01, s02, s03
			o1[j], o1[j+1], o1[j+2], o1[j+3] = s10, s11, s12, s13
		}
		for j := n4; j < n; j++ {
			o0[j] = dotColumn(a0, b[j:], kk, n, ts, i0)
			o1[j] = dotColumn(a1, b[j:], kk, n, ts, i1)
		}
	}
	if i < m {
		for j := 0; j < n; j++ {
			out[i*n+j] = dotColumn(a[i*rs:], b[j:], kk, n, ts, startValue(init, i))
		}
	}
}

// dotColumn returns s plus the kk products a[t·ts]·b[t·n], added in
// ascending t: one element of gemm.
func dotColumn(a, b []float64, kk, n, ts int, s float64) float64 {
	for t := 0; t < kk; t++ {
		s += float64(a[t*ts] * b[t*n])
	}
	return s
}

// startValue returns row i's start value: init[i], or +0 for a nil init.
func startValue(init []float64, i int) float64 {
	if init == nil {
		return 0
	}
	return init[i]
}
