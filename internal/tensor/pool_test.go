package tensor

import (
	"fmt"
	"math"
	"testing"

	"github.com/stsl/stsl/internal/mathx"
)

// poolSpecials are the values the pool tests draw windows from: both
// NaNs, both infinities, both zeros and a few finite values, so windows
// hold ties, NaN, −Inf-only and non-positive-only cases.
var poolSpecials = []float64{
	math.NaN(), math.Float64frombits(0xfff8000000000001), math.Inf(-1), math.Inf(1),
	math.Copysign(0, -1), 0, -1, 1, 2,
}

// TestPoolTwin checks MaxPoolPlanes, on the AVX2 kernel where the host
// has it, against maxPoolGo, its Go twin, bit for bit in value and
// argmax: 2×2 stride-2 windows over widths that leave 0–3 windows after
// the kernel's groups of four, rows of one to three windows (all Go),
// odd heights and widths, plane ranges that start past 0, with and
// without the argmax, and nothing written outside the range's planes.
func TestPoolTwin(t *testing.T) {
	r := mathx.NewRNG(11)
	const planes = 5
	for _, h := range []int{2, 3, 4, 5, 7, 8} {
		for w := 2; w <= 37; w++ {
			for _, rng := range [][2]int{{0, planes}, {1, 4}, {2, 3}} {
				for _, withArg := range []bool{true, false} {
					src := make([]float64, planes*h*w)
					for i := range src {
						src[i] = poolSpecials[r.Intn(len(poolSpecials))]
					}
					oh, ow := h/2, w/2
					size := planes * oh * ow
					want, wantArg := fill(size, 42), make([]int, size)
					got, gotArg := fill(size, 42), make([]int, size)
					for i := range gotArg {
						wantArg[i], gotArg[i] = -7, -7
					}
					maxPoolGo(want, wantArg, src, rng[0], rng[1], h, w, 2, 2, 2, 2, 0)
					arg := gotArg
					if !withArg {
						arg = nil
					}
					MaxPoolPlanes(got, arg, src, rng[0], rng[1], h, w, 2, 2, 2, 2)
					name := fmt.Sprintf("h=%d w=%d planes=%v argmax=%v", h, w, rng, withArg)
					for i := range want {
						if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
							t.Fatalf("%s: window %d = %v (%#x), twin %v (%#x)", name, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
						}
						if withArg && gotArg[i] != wantArg[i] || !withArg && gotArg[i] != -7 {
							t.Fatalf("%s: window %d argmax %d, twin %d", name, i, gotArg[i], wantArg[i])
						}
					}
				}
			}
		}
	}
}

// TestPoolRejectsShortOperands: a destination, argmax or source too
// short for the planes panics before anything is written.
func TestPoolRejectsShortOperands(t *testing.T) {
	const planes, h, w = 2, 4, 16
	for _, c := range []struct {
		name       string
		dst, src   int
		arg        int
		p0, p1, kh int
	}{
		{"dst", planes*2*8 - 1, planes * h * w, planes * 2 * 8, 0, planes, 2},
		{"argmax", planes * 2 * 8, planes * h * w, planes*2*8 - 1, 0, planes, 2},
		{"src", planes * 2 * 8, planes*h*w - 1, planes * 2 * 8, 0, planes, 2},
		{"range", planes * 2 * 8, planes * h * w, planes * 2 * 8, 1, 0, 2},
		{"window", planes * 2 * 8, planes * h * w, planes * 2 * 8, 0, planes, h + 1},
	} {
		dst := fill(c.dst, 42)
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", c.name)
				}
			}()
			MaxPoolPlanes(dst, make([]int, c.arg), make([]float64, c.src), c.p0, c.p1, h, w, c.kh, 2, 2, 2)
		}()
		for i, v := range dst {
			if v != 42 {
				t.Fatalf("%s: dst[%d] written before the panic", c.name, i)
			}
		}
	}
}

// TestPoolGradTwin checks MaxPoolGradPlanes, on the AVX2 kernel where
// the host has it and the windows tile rows of a multiple of four, against
// maxPoolGradGo, its Go twin (zero, then add each gradient at its
// argmax), bit for bit: argmaxes from adversarial windows, gradients of
// both zeros, both NaNs and both infinities, widths the kernel takes and
// widths it leaves to the twin, plane ranges that start past 0, and
// nothing written outside the range's planes.
func TestPoolGradTwin(t *testing.T) {
	r := mathx.NewRNG(13)
	const planes = 5
	for _, h := range []int{2, 4, 6, 7} {
		for _, w := range []int{2, 4, 6, 8, 10, 16, 24, 32, 33} {
			for _, rng := range [][2]int{{0, planes}, {1, 4}, {2, 3}} {
				src := make([]float64, planes*h*w)
				for i := range src {
					src[i] = poolSpecials[r.Intn(len(poolSpecials))]
				}
				oh, ow := h/2, w/2
				out, argmax := make([]float64, planes*oh*ow), make([]int, planes*oh*ow)
				MaxPoolPlanes(out, argmax, src, 0, planes, h, w, 2, 2, 2, 2)
				grad := make([]float64, planes*oh*ow)
				for i := range grad {
					grad[i] = poolSpecials[r.Intn(len(poolSpecials))]
				}
				want, got := fill(planes*h*w, 42), fill(planes*h*w, 42)
				maxPoolGradGo(want, grad, argmax, rng[0], rng[1], h*w, oh*ow)
				MaxPoolGradPlanes(got, grad, argmax, rng[0], rng[1], h, w, 2, 2, 2, 2)
				for i := range want {
					if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
						t.Fatalf("h=%d w=%d planes=%v: dx[%d] = %v (%#x), twin %v (%#x)",
							h, w, rng, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
					}
				}
			}
		}
	}
}

func fill(n int, v float64) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = v
	}
	return s
}
