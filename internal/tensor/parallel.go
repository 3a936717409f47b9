package tensor

import (
	"runtime"
	"sync"
)

// parallelThreshold is the minimum volume of work (multiply-adds for
// MatMulTransBPInto, elements for the stack/scatter copies) before it is
// fanned out to goroutines; below it the serial path wins.
const parallelThreshold = 1 << 18

// MatMulTransBPInto is the parallel variant of MatMulTransBInto (a·bᵀ),
// used by the convolution forward pass where the im2col matrix can be
// very tall. Each worker writes a disjoint range of dst's rows, so the
// result is bitwise identical to the serial kernel regardless of
// scheduling.
func MatMulTransBPInto(dst, a, b *Tensor) *Tensor {
	if a.Dims() != 2 || b.Dims() != 2 {
		// Validate before reading shape[1]: a rank-0/1 operand must reach
		// the serial kernel's descriptive panic, not index out of range.
		return MatMulTransBInto(dst, a, b)
	}
	m, k := a.shape[0], a.shape[1]
	n := b.shape[0]
	if k != b.shape[1] || m*k*n < parallelThreshold {
		// Delegate to the serial kernel: its validation panics for the
		// mismatch, its tighter loop for the small case.
		return MatMulTransBInto(dst, a, b)
	}
	dst = Reuse(dst, m, n)
	mustNotAlias("MatMulTransBPInto", dst, a, b)
	out := dst.data
	workers := runtime.GOMAXPROCS(0)
	if workers > m {
		workers = m
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo := w * m / workers
		hi := (w + 1) * m / workers
		if lo == hi {
			continue
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			// Same range kernel (and same full-size dispatch decision, see
			// matMulRange) as the serial path, so results match it bitwise.
			matMulTransBRange(a.data, b.data, out, m, k, n, lo, hi)
		}(lo, hi)
	}
	wg.Wait()
	return dst
}
