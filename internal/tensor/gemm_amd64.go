//go:build amd64 && !purego

package tensor

import "fmt"

// useAVX2 selects the AVX2 kernels: gemmAVX2 for gemm, the pool's and
// the convolution backward's. It is fixed at package init from CPUID;
// only tests change it, to time or check the Go twins.
var useAVX2 = hasAVX2()

// gemm is described in gemm.go.
func gemm(out, a, b, init []float64, m, kk, n, rs, ts int) {
	if useAVX2 {
		gemmAVX2(out, a, b, init, m, kk, n, rs, ts)
		return
	}
	gemmGo(out, a, b, init, m, kk, n, rs, ts)
}

// gemmAVX2 is gemm on the assembly tiles: rows in panels of four, each
// panel's columns in blocks of eight (tile4x8) and one block of four
// (tile4x4), and the rows and columns left over by dotColumn. It checks
// every slice it hands the assembly first, and panics, before any
// assembly runs, on one too short for the product.
func gemmAVX2(out, a, b, init []float64, m, kk, n, rs, ts int) {
	if m < 0 || kk < 0 || n < 0 || rs < 0 || ts < 0 ||
		len(out) < m*n || len(b) < kk*n || init != nil && len(init) < m ||
		m > 0 && kk > 0 && len(a) <= (m-1)*rs+(kk-1)*ts {
		panic(fmt.Sprintf("tensor: gemm operands out %d, a %d, b %d, init %d do not hold m=%d kk=%d n=%d rs=%d ts=%d",
			len(out), len(a), len(b), len(init), m, kk, n, rs, ts))
	}
	if m == 0 || n == 0 {
		return
	}
	if kk == 0 {
		gemmGo(out, a, b, init, m, kk, n, rs, ts)
		return
	}
	raceTile(out[:m*n], a[:(m-1)*rs+(kk-1)*ts+1], b[:kk*n], init)
	n8 := n &^ 7
	n4 := n &^ 3
	i := 0
	for ; i+4 <= m; i += 4 {
		o, ai, start := out[i*n:], a[i*rs:], &zeroStarts[0]
		if init != nil {
			start = &init[i]
		}
		if n8 > 0 {
			tile4x8(&o[0], &ai[0], &b[0], start, kk, n, rs, ts, n8/8)
		}
		if n4 > n8 {
			tile4x4(&o[n8], &ai[0], &b[n8], start, kk, n, rs, ts)
		}
		for r := 0; r < 4; r++ {
			for j := n4; j < n; j++ {
				o[r*n+j] = dotColumn(a[(i+r)*rs:], b[j:], kk, n, ts, startValue(init, i+r))
			}
		}
	}
	for ; i < m; i++ {
		for j := 0; j < n; j++ {
			out[i*n+j] = dotColumn(a[i*rs:], b[j:], kk, n, ts, startValue(init, i))
		}
	}
}

// zeroStarts are a panel's start values under a nil init.
var zeroStarts [4]float64

// The tiles compute, for rows 0..3 of A at a, a + rs, a + 2·rs and
// a + 3·rs (in elements), one block of out (row stride n) from the same
// columns of b (row stride n): out = start + A·B, with start[r] the
// start value of row r. tile4x8 computes nb blocks of eight adjacent
// columns, tile4x4 one block of four. Each element's kk products are
// multiplied (VMULPD) and then added (VADDPD) in ascending tap order,
// kk ≥ 1.

//go:noescape
func tile4x8(out, a, b, start *float64, kk, n, rs, ts, nb int)

//go:noescape
func tile4x4(out, a, b, start *float64, kk, n, rs, ts int)

// hasAVX2 reports whether the CPU has AVX2 and the OS saves the YMM
// registers across context switches (OSXSAVE, and XCR0's SSE and AVX
// state bits).
func hasAVX2() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	const osxsave, avx = 1 << 27, 1 << 28
	if ecx1&osxsave == 0 || ecx1&avx == 0 {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&6 != 6 {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	const avx2 = 1 << 5
	return ebx7&avx2 != 0
}

// cpuid executes CPUID with EAX and ECX set to leaf and sub.
func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// xgetbv returns XCR0, the OS's extended-state enable mask.
func xgetbv() (eax, edx uint32)
