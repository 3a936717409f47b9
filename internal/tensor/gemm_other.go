//go:build !amd64 || purego

package tensor

// gemm is described in gemm.go. Without the AVX2 tile it is gemmGo.
func gemm(out, a, b, init []float64, m, kk, n, rs, ts int) {
	gemmGo(out, a, b, init, m, kk, n, rs, ts)
}
