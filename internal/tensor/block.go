package tensor

// Cache-blocked (tiled) matmul kernels. The naive i-k-j loops in ops.go
// stream the full B operand through cache once per output row — at
// 256×256 float64 that is a 512 KiB panel re-read 256 times. The blocked
// kernels below partition B into kb×nb tiles small enough to stay
// resident across the whole row sweep, so B is read from memory once per
// full product instead of once per row, and unroll the k loop 4-wide for
// instruction-level parallelism.
//
// Dispatch: the public MatMulInto/MatMulTransAInto/MatMulTransBInto switch
// to the blocked kernels when the multiply-add count reaches
// blockedThreshold, and keep the original zero-skipping naive loops below
// it, where tiling overhead and the lost sparsity skip would cost more
// than the cache behaviour buys. Every kernel takes an output-row range,
// and ParallelFor splits a product over output rows only, never over k:
// each range runs the same code — and therefore the same floating-point
// accumulation order — on its rows as the serial whole would.
const (
	// blockedThreshold is the m*k*n volume above which the tiled kernels
	// win over the naive loops (64³ — matrices about one L2 cache big).
	blockedThreshold = 1 << 18
	// blockK × blockN is the B tile: 64×256 float64 = 128 KiB, sized for
	// L2 residency while the row sweep streams A past it.
	blockK = 64
	blockN = 256
)

// matMulRange computes output rows [lo,hi) of the (m×k)·(k×n) product.
// The kernel choice depends only on the FULL problem size (m, not hi-lo),
// and both kernels accumulate each output element in an order fixed by
// (k, n) alone — so any row partition of the same product is bitwise
// identical to the serial whole. matMulTransBRange keeps the same rule,
// and ParallelFor's row partition relies on it.
func matMulRange(a, b, out []float64, m, k, n, lo, hi int) {
	if m*k*n >= blockedThreshold && k >= 4 {
		matMulRowsBlocked(a, b, out, k, n, lo, hi)
		return
	}
	for i := lo; i < hi; i++ {
		arow := a[i*k : (i+1)*k]
		orow := out[i*n : (i+1)*n]
		for kk := 0; kk < k; kk++ {
			av := arow[kk]
			if av == 0 {
				continue
			}
			brow := b[kk*n : (kk+1)*n]
			for j, bv := range brow {
				orow[j] += av * bv
			}
		}
	}
}

// matMulRowsBlocked is the tiled i-k-j kernel: for each kb×nb tile of B,
// sweep every output row, accumulating 4 k-steps per pass so each
// read-modify-write of the output row segment carries 4 multiply-adds.
func matMulRowsBlocked(a, b, out []float64, k, n, lo, hi int) {
	for kc := 0; kc < k; kc += blockK {
		kmax := kc + blockK
		if kmax > k {
			kmax = k
		}
		for jc := 0; jc < n; jc += blockN {
			jmax := jc + blockN
			if jmax > n {
				jmax = n
			}
			for i := lo; i < hi; i++ {
				arow := a[i*k : (i+1)*k]
				orow := out[i*n+jc : i*n+jmax]
				kk := kc
				for ; kk+4 <= kmax; kk += 4 {
					av0, av1, av2, av3 := arow[kk], arow[kk+1], arow[kk+2], arow[kk+3]
					b0 := b[kk*n+jc : kk*n+jmax]
					b1 := b[(kk+1)*n+jc : (kk+1)*n+jmax]
					b2 := b[(kk+2)*n+jc : (kk+2)*n+jmax]
					b3 := b[(kk+3)*n+jc : (kk+3)*n+jmax]
					for j := range orow {
						orow[j] += av0*b0[j] + av1*b1[j] + av2*b2[j] + av3*b3[j]
					}
				}
				for ; kk < kmax; kk++ {
					av := arow[kk]
					brow := b[kk*n+jc : kk*n+jmax]
					for j := range orow {
						orow[j] += av * brow[j]
					}
				}
			}
		}
	}
}

// matMulTransBRange computes output rows [lo,hi) of a·bᵀ for a (m×k),
// b (n×k). Kernel choice depends only on the full problem size, and both
// kernels compute every dot product via dotUnrolled, so serial and
// parallel callers agree bitwise.
func matMulTransBRange(a, b, out []float64, m, k, n, lo, hi int) {
	if m*k*n >= blockedThreshold {
		matMulTransBRowsBlocked(a, b, out, k, n, lo, hi)
		return
	}
	for i := lo; i < hi; i++ {
		arow := a[i*k : (i+1)*k]
		orow := out[i*n : (i+1)*n]
		for j := 0; j < n; j++ {
			orow[j] = dotUnrolled(arow, b[j*k:(j+1)*k])
		}
	}
}

// matMulTransBRowsBlocked tiles the rows of B into panels that stay
// cache-resident while every output row sweeps them: B is read once per
// product instead of once per output row.
func matMulTransBRowsBlocked(a, b, out []float64, k, n, lo, hi int) {
	// Panel of B rows: blockN rows × k cols each. Cap panel footprint at
	// blockK*blockN elements so long-k operands still tile.
	rows := blockN
	if k > 0 {
		if r := (blockK * blockN) / k; r < rows {
			rows = r
		}
	}
	if rows < 1 {
		rows = 1
	}
	for jc := 0; jc < n; jc += rows {
		jmax := jc + rows
		if jmax > n {
			jmax = n
		}
		for i := lo; i < hi; i++ {
			arow := a[i*k : (i+1)*k]
			orow := out[i*n : (i+1)*n]
			j := jc
			for ; j+2 <= jmax; j += 2 {
				orow[j], orow[j+1] = dotUnrolled2(arow, b[j*k:(j+1)*k], b[(j+1)*k:(j+2)*k])
			}
			if j < jmax {
				orow[j] = dotUnrolled(arow, b[j*k:(j+1)*k])
			}
		}
	}
}

// dotUnrolled is the shared 4-accumulator dot product; one definition so
// blocked, serial and parallel TransB paths round identically.
func dotUnrolled(x, y []float64) float64 {
	var s0, s1, s2, s3 float64
	kk := 0
	for ; kk+4 <= len(x); kk += 4 {
		s0 += x[kk] * y[kk]
		s1 += x[kk+1] * y[kk+1]
		s2 += x[kk+2] * y[kk+2]
		s3 += x[kk+3] * y[kk+3]
	}
	s := s0 + s1 + s2 + s3
	for ; kk < len(x); kk++ {
		s += x[kk] * y[kk]
	}
	return s
}

// dotUnrolled2 returns dotUnrolled(x, y) and dotUnrolled(x, z) from one
// pass over x. Each result keeps its own four lanes, their sum and its
// tail in dotUnrolled's order, so both are bit-identical to it.
func dotUnrolled2(x, y, z []float64) (float64, float64) {
	y, z = y[:len(x)], z[:len(x)]
	var s0, s1, s2, s3, t0, t1, t2, t3 float64
	kk := 0
	for ; kk+4 <= len(x); kk += 4 {
		x0, x1, x2, x3 := x[kk], x[kk+1], x[kk+2], x[kk+3]
		s0 += x0 * y[kk]
		s1 += x1 * y[kk+1]
		s2 += x2 * y[kk+2]
		s3 += x3 * y[kk+3]
		t0 += x0 * z[kk]
		t1 += x1 * z[kk+1]
		t2 += x2 * z[kk+2]
		t3 += x3 * z[kk+3]
	}
	s := s0 + s1 + s2 + s3
	t := t0 + t1 + t2 + t3
	for ; kk < len(x); kk++ {
		s += x[kk] * y[kk]
		t += x[kk] * z[kk]
	}
	return s, t
}

// matMulTransACols computes columns [lo:hi) of aᵀ·b for a (k×m), b (k×n):
// rank-1 updates tiled so the out panel under update stays cache-resident
// across the full k sweep instead of being streamed k times. Accumulation
// order per output element is ascending k in both the tiled and naive
// paths.
func matMulTransACols(a, b, out []float64, k, m, n, lo, hi int) {
	if k*(hi-lo)*n < blockedThreshold {
		for kk := 0; kk < k; kk++ {
			arow := a[kk*m+lo : kk*m+hi]
			brow := b[kk*n : (kk+1)*n]
			for i, av := range arow {
				if av == 0 {
					continue
				}
				orow := out[(lo+i)*n : (lo+i+1)*n]
				for j, bv := range brow {
					orow[j] += av * bv
				}
			}
		}
		return
	}
	// Tile the output: blockK rows × blockN cols of out stay hot while
	// the k loop streams the matching A and B column panels once.
	for ic := lo; ic < hi; ic += blockK {
		imax := ic + blockK
		if imax > hi {
			imax = hi
		}
		for jc := 0; jc < n; jc += blockN {
			jmax := jc + blockN
			if jmax > n {
				jmax = n
			}
			for kk := 0; kk < k; kk++ {
				arow := a[kk*m+ic : kk*m+imax]
				brow := b[kk*n+jc : kk*n+jmax]
				for i, av := range arow {
					if av == 0 {
						continue
					}
					orow := out[(ic+i)*n+jc : (ic+i)*n+jmax]
					for j, bv := range brow {
						orow[j] += av * bv
					}
				}
			}
		}
	}
}
