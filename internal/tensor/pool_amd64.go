//go:build amd64 && !purego

package tensor

// maxPool2x2 pools the 2×2 stride-2 windows of planes [p0, p1) of src
// (each h × w) on the AVX2 kernel, four windows of an output row at a
// time, and returns how many windows of each row it did: ow rounded down
// to a multiple of four, or 0 without AVX2 or when a row has fewer than
// four. MaxPoolPlanes has bounds-checked every slice. One kernel call
// covers every plane when h is even, since the rows are then evenly
// spaced; with an odd h there is one call per plane.
func maxPool2x2(dst []float64, argmax []int, src []float64, p0, p1, h, w int) int {
	oh, ow := h/2, w/2
	groups := ow / 4
	if !useAVX2 || groups == 0 || p1 == p0 {
		return 0
	}
	var arg []int
	if argmax != nil {
		arg = argmax[p0*oh*ow : p1*oh*ow]
	}
	racePool(dst[p0*oh*ow:p1*oh*ow], arg, src[p0*h*w:p1*h*w])
	step := p1 - p0
	if h%2 != 0 {
		step = 1
	}
	for p := p0; p < p1; p += step {
		var a *int
		if argmax != nil {
			a = &argmax[p*oh*ow]
		}
		pool2x2(&dst[p*oh*ow], a, &src[p*h*w], step*oh, groups, ow, w, p*h*w)
	}
	return groups * 4
}

// pool2x2 pools rows output rows of 4·groups windows each. Output row r
// reads input rows 2r and 2r + 1 of width w from src and writes ow
// apart into dst and, unless argmax is nil, into argmax; src's first
// element has index base. Each window's elements are compared in
// row-major order with VCMPPD greater-than (ordered, so NaN never wins)
// and selected with VMAXPD, whose choice is the same, and the argmax
// lanes follow the compares by VBLENDVPD.
//
//go:noescape
func pool2x2(dst *float64, argmax *int, src *float64, rows, groups, ow, w, base int)

// maxPoolGrad2x2 writes planes [p0, p1) of a 2×2 stride-2 pool's input
// gradient on the AVX2 kernel and reports whether it did: the windows
// tile the planes (h even, w a multiple of eight, so every row holds a
// multiple of four windows). MaxPoolGradPlanes has bounds-checked every
// slice and the geometry.
func maxPoolGrad2x2(dx, grad []float64, argmax []int, p0, p1, h, w int) bool {
	if !useAVX2 {
		return false
	}
	if p1 > p0 {
		oh, ow := h/2, w/2
		o := p0 * oh * ow
		racePoolGrad(dx[p0*h*w:p1*h*w], grad[o:p1*oh*ow], argmax[o:p1*oh*ow])
		unpool2x2(&dx[p0*h*w], &grad[o], &argmax[o], (p1-p0)*oh, ow/4, w, p0*h*w)
	}
	return true
}

// unpool2x2 writes rows output rows' worth of a tiled 2×2 pool's input
// gradient: input rows 2r and 2r + 1 of width w = 8·groups from grad
// and argmax, whose rows of 4·groups entries follow one another, as do
// the input rows; dx's first element has index base. Each element gets
// its window's gradient plus +0 (VADDPD) where the window's argmax
// points (VPCMPEQQ) and +0 elsewhere.
//
//go:noescape
func unpool2x2(dx, grad *float64, argmax *int, rows, groups, w, base int)
