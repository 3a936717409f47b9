package tensor

import (
	"math"
	"testing"

	"github.com/stsl/stsl/internal/mathx"
)

// naiveMatMul is the pre-blocking reference kernel, kept here so the
// tiled implementations are always checked against first principles.
func naiveMatMul(a, b *Tensor) *Tensor {
	m, k := a.shape[0], a.shape[1]
	n := b.shape[1]
	out := New(m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			s := 0.0
			for kk := 0; kk < k; kk++ {
				s += a.data[i*k+kk] * b.data[kk*n+j]
			}
			out.data[i*n+j] = s
		}
	}
	return out
}

func maxAbsDiff(a, b *Tensor) float64 {
	d := 0.0
	for i, v := range a.data {
		if x := math.Abs(v - b.data[i]); x > d {
			d = x
		}
	}
	return d
}

// TestBlockedMatchesNaive sweeps shapes that straddle the blocking
// threshold, including non-tile-multiple and degenerate dimensions, for
// all three product variants.
func TestBlockedMatchesNaive(t *testing.T) {
	r := mathx.NewRNG(7)
	shapes := []struct{ m, k, n int }{
		{1, 1, 1},
		{3, 5, 7},      // tiny: naive path
		{64, 64, 64},   // exactly the threshold volume
		{97, 130, 301}, // blocked, nothing tile-aligned
		{65, 257, 66},  // blocked, one past tile sizes
		{128, 3, 1024}, // k < unroll width
		{2, 4096, 33},  // long-k, few rows
		{256, 64, 1},   // single output column
	}
	for _, s := range shapes {
		a := Rand(r, -1, 1, s.m, s.k)
		b := Rand(r, -1, 1, s.k, s.n)
		want := naiveMatMul(a, b)
		// Tolerance scales with the dot-product length: reordered
		// accumulation differs from naive by O(k·eps) per element.
		tol := float64(s.k) * 1e-14
		if got := MatMulInto(nil, a, b); maxAbsDiff(got, want) > tol {
			t.Errorf("MatMul %dx%dx%d: max diff %g > %g", s.m, s.k, s.n, maxAbsDiff(got, want), tol)
		}
		// aᵀ·b through a pre-transposed a must agree with a·b.
		if got := MatMulTransAInto(nil, a.Transpose(), b); maxAbsDiff(got, want) > tol {
			t.Errorf("MatMulTransA %dx%dx%d: max diff %g > %g", s.m, s.k, s.n, maxAbsDiff(got, want), tol)
		}
		// a·(bᵀ)ᵀ through MatMulTransB must agree with a·b.
		if got := MatMulTransBInto(nil, a, b.Transpose()); maxAbsDiff(got, want) > tol {
			t.Errorf("MatMulTransB %dx%dx%d: max diff %g > %g", s.m, s.k, s.n, maxAbsDiff(got, want), tol)
		}
	}
}

// BenchmarkMatMul pins the acceptance number: blocked vs the naive
// reference at 256×256.
func BenchmarkMatMul(b *testing.B) {
	r := mathx.NewRNG(1)
	const dim = 256
	x := Rand(r, -1, 1, dim, dim)
	y := Rand(r, -1, 1, dim, dim)
	b.Run("naive-f64-256", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			naiveMatMul(x, y)
		}
	})
	// The kernels write into a destination the caller keeps, as the
	// layers do: 0 allocs/op once it exists.
	b.Run("blocked-f64-256", func(b *testing.B) {
		b.ReportAllocs()
		var out *Tensor
		for i := 0; i < b.N; i++ {
			out = MatMulInto(out, x, y)
		}
	})
	b.Run("transB-f64-256", func(b *testing.B) {
		b.ReportAllocs()
		var out *Tensor
		for i := 0; i < b.N; i++ {
			out = MatMulTransBInto(out, x, y)
		}
	})
}
