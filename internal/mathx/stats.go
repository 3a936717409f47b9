package mathx

import "math"

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Variance returns the population variance of xs, or 0 when len(xs) < 2.
func Variance(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	s := 0.0
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s / float64(len(xs))
}

// Std returns the population standard deviation of xs.
func Std(xs []float64) float64 {
	return math.Sqrt(Variance(xs))
}

// Max returns the maximum of xs. It panics on an empty slice.
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		panic("mathx: Max of empty slice")
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// ArgMax returns the index of the largest element, breaking ties toward the
// lowest index. It panics on an empty slice.
func ArgMax(xs []float64) int {
	if len(xs) == 0 {
		panic("mathx: ArgMax of empty slice")
	}
	best, bestI := xs[0], 0
	for i, x := range xs[1:] {
		if x > best {
			best = x
			bestI = i + 1
		}
	}
	return bestI
}

// Clamp limits x to the closed interval [lo, hi].
func Clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

// Softmax writes the softmax of src into dst (which may alias src) and
// returns dst. Both slices must have the same length.
func Softmax(dst, src []float64) []float64 {
	if len(dst) != len(src) {
		panic("mathx: Softmax length mismatch")
	}
	if len(src) == 0 {
		return dst
	}
	m := Max(src)
	s := 0.0
	for i, x := range src {
		e := math.Exp(x - m)
		dst[i] = e
		s += e
	}
	inv := 1 / s
	for i := range dst {
		dst[i] *= inv
	}
	return dst
}

// AlmostEqual reports whether a and b agree to within tol absolutely or
// relatively (whichever is looser), treating NaNs as unequal.
func AlmostEqual(a, b, tol float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return false
	}
	diff := math.Abs(a - b)
	if diff <= tol {
		return true
	}
	scale := math.Max(math.Abs(a), math.Abs(b))
	return diff <= tol*scale
}
