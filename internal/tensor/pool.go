package tensor

import (
	"fmt"
	"math"
)

// MaxPoolPlanes max-pools planes [p0, p1) of src, each h × w, with
// kh × kw windows at strides sh and sw, into the same planes of dst,
// each oh × ow = ((h−kh)/sh + 1) × ((w−kw)/sw + 1). Each window keeps
// its first strict maximum in row-major order, starting from −Inf, so
// NaN never wins, and yields its first element when nothing beats −Inf
// (all NaN or −Inf). dst gets the chosen element's bits and, when
// argmax is not nil, argmax its index into src.
//
// The 2×2 stride-2 windows of a row at least four windows wide run on
// an AVX2 kernel where the host has one (pool_amd64.s), four windows at
// a time; maxPoolGo, its reference, does the rest. Both pick the same
// element of every window.
func MaxPoolPlanes(dst []float64, argmax []int, src []float64, p0, p1, h, w, kh, kw, sh, sw int) {
	if kh <= 0 || kw <= 0 || sh <= 0 || sw <= 0 || kh > h || kw > w || p0 < 0 || p1 < p0 {
		panic(fmt.Sprintf("tensor: max-pool of planes [%d,%d) of %d×%d by %d×%d windows at strides %d×%d",
			p0, p1, h, w, kh, kw, sh, sw))
	}
	oh, ow := (h-kh)/sh+1, (w-kw)/sw+1
	if len(src) < p1*h*w || len(dst) < p1*oh*ow || argmax != nil && len(argmax) < p1*oh*ow {
		panic(fmt.Sprintf("tensor: max-pool of planes [%d,%d) of %d×%d into %d×%d does not fit src %d, dst %d, argmax %d",
			p0, p1, h, w, oh, ow, len(src), len(dst), len(argmax)))
	}
	done := 0
	if kh == 2 && kw == 2 && sh == 2 && sw == 2 {
		done = maxPool2x2(dst, argmax, src, p0, p1, h, w)
	}
	maxPoolGo(dst, argmax, src, p0, p1, h, w, kh, kw, sh, sw, done)
}

// maxPoolGo is MaxPoolPlanes in Go for the windows of every output row
// from column ox0 on: one scan per window over a table of its elements'
// offsets, the best value and index selected with bit masks rather than
// a branch. The table lives on the stack for windows of up to 16
// elements.
func maxPoolGo(dst []float64, argmax []int, src []float64, p0, p1, h, w, kh, kw, sh, sw, ox0 int) {
	oh, ow := (h-kh)/sh+1, (w-kw)/sw+1
	offs := make([]int, 0, 16)
	for r := 0; r < kh; r++ {
		for c := 0; c < kw; c++ {
			offs = append(offs, r*w+c)
		}
	}
	span := offs[len(offs)-1] + 1
	for p := p0; p < p1; p++ {
		for oy := 0; oy < oh; oy++ {
			di := (p*oh + oy) * ow
			for ox := ox0; ox < ow; ox++ {
				first := p*h*w + oy*sh*w + ox*sw
				q := src[first : first+span]
				best, idx := math.Inf(-1), 0
				for _, at := range offs {
					v := q[at]
					m := -b2u(v > best)
					best = math.Float64frombits(math.Float64bits(best)&^m | math.Float64bits(v)&m)
					idx = idx&^int(m) | at&int(m)
				}
				dst[di+ox] = q[idx]
				if argmax != nil {
					argmax[di+ox] = first + idx
				}
			}
		}
	}
}

// b2u returns 1 for true and 0 for false. The compiler emits a SETcc or
// a zero extension for it, not a branch, so -b2u(b) is a bit mask.
func b2u(b bool) uint64 {
	var u uint64
	if b {
		u = 1
	}
	return u
}

// MaxPoolGradPlanes writes planes [p0, p1) of dx, each h × w, the input
// gradient of the max-pool MaxPoolPlanes computed with the same
// geometry: every element is +0 plus the gradients grad of the windows
// whose argmax chose it, added in window order. argmax and grad hold
// oh·ow entries a plane, and a window's argmax lies in its own plane.
//
// When 2×2 stride-2 windows tile the planes in rows of a multiple of
// four windows, an AVX2 kernel writes every element once, +0 + g at a
// window's argmax and +0 elsewhere, where the host has one
// (pool_amd64.s); otherwise the planes are zeroed and each gradient
// added at its argmax, which gives the same bits.
func MaxPoolGradPlanes(dx, grad []float64, argmax []int, p0, p1, h, w, kh, kw, sh, sw int) {
	if kh <= 0 || kw <= 0 || sh <= 0 || sw <= 0 || kh > h || kw > w || p0 < 0 || p1 < p0 {
		panic(fmt.Sprintf("tensor: max-pool gradient of planes [%d,%d) of %d×%d by %d×%d windows at strides %d×%d",
			p0, p1, h, w, kh, kw, sh, sw))
	}
	oh, ow := (h-kh)/sh+1, (w-kw)/sw+1
	if len(dx) < p1*h*w || len(grad) < p1*oh*ow || len(argmax) < p1*oh*ow {
		panic(fmt.Sprintf("tensor: max-pool gradient of planes [%d,%d) of %d×%d from %d×%d does not fit dx %d, grad %d, argmax %d",
			p0, p1, h, w, oh, ow, len(dx), len(grad), len(argmax)))
	}
	if kh == 2 && kw == 2 && sh == 2 && sw == 2 && h%2 == 0 && w%8 == 0 &&
		maxPoolGrad2x2(dx, grad, argmax, p0, p1, h, w) {
		return
	}
	maxPoolGradGo(dx, grad, argmax, p0, p1, h*w, oh*ow)
}

// maxPoolGradGo is MaxPoolGradPlanes in Go for planes of in input and
// out output elements: it zeroes the planes and adds each gradient at
// its argmax.
func maxPoolGradGo(dx, grad []float64, argmax []int, p0, p1, in, out int) {
	clear(dx[p0*in : p1*in])
	for i, g := range grad[p0*out : p1*out] {
		dx[argmax[p0*out+i]] += g
	}
}
