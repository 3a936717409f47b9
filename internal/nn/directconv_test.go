package nn

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"github.com/stsl/stsl/internal/mathx"
	"github.com/stsl/stsl/internal/tensor"
)

// TestDirectConvMatchesConv2D: naive direct loops and Conv2D's padded
// lowering agree bit for bit — two independent implementations
// cross-checking each other — on the forward, the input gradient and the
// filter and bias gradients, over random geometries: kernels 1–3,
// strides 1–2, pads 0–2, non-square inputs, batches 1–3, down to 1×1
// outputs, and one in four large enough to fan out. The output gradient
// is dense or three in four zero. The references skip the padding taps
// where the lowering adds their ±0 products, which can flip the sign of
// a zero sum and nothing else, so only a zero's sign is exempt.
func TestDirectConvMatchesConv2D(t *testing.T) {
	f := func(seed uint64) bool {
		r := mathx.NewRNG(seed)
		cfg := Conv2DConfig{
			Name:    "c",
			In:      1 + r.Intn(3),
			Out:     1 + r.Intn(5),
			KernelH: 1 + r.Intn(3), KernelW: 1 + r.Intn(3),
			StrideH: 1 + r.Intn(2), StrideW: 1 + r.Intn(2),
			PadH: r.Intn(3), PadW: r.Intn(3),
		}
		conv, err := NewConv2D(cfg, r)
		if err != nil {
			return true // invalid random config, skip
		}
		h, w := cfg.KernelH+r.Intn(7), cfg.KernelW+r.Intn(7)
		if r.Intn(4) == 0 {
			h, w = h+16, w+16
		}
		x := tensor.Randn(r, 1, 1+r.Intn(3), cfg.In, h, w)
		conv.bias.Value = tensor.Randn(r, 1, cfg.Out)
		got := conv.Forward(x, true)
		if !sameBitsButZeroSign(got, DirectConvForward(conv, x)) {
			t.Logf("seed %d %+v on %v: forward differs", seed, cfg, x.Shape())
			return false
		}
		grad := tensor.Randn(r, 1, got.Shape()...)
		if r.Intn(2) == 0 {
			for i, d := 0, grad.Data(); i < len(d); i++ {
				if r.Intn(4) != 0 {
					d[i] = 0
				}
			}
		}
		dx := conv.Backward(grad)
		wantDx, wantDw, wantDb := DirectConvBackward(conv, x, grad)
		for _, c := range []struct {
			name      string
			got, want *tensor.Tensor
		}{{"input gradient", dx, wantDx}, {"filter gradient", conv.weight.Grad, wantDw}, {"bias gradient", conv.bias.Grad, wantDb}} {
			if !sameBitsButZeroSign(c.got, c.want) {
				t.Logf("seed %d %+v on %v: %s differs", seed, cfg, x.Shape(), c.name)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// sameBitsButZeroSign reports whether a and b hold the same bits, a
// zero's sign aside.
func sameBitsButZeroSign(a, b *tensor.Tensor) bool {
	if !a.SameShape(b) {
		return false
	}
	for i, v := range a.Data() {
		if w := b.Data()[i]; math.Float64bits(v) != math.Float64bits(w) && (v != 0 || w != 0) {
			return false
		}
	}
	return true
}

// DirectConvForward computes what Conv2D.Forward does with naive nested
// loops and no lowering: the independent reference the tests above
// check Conv2D against. Inference only.
func DirectConvForward(c *Conv2D, x *tensor.Tensor) *tensor.Tensor {
	s := x.Shape()
	if len(s) != 4 || s[1] != c.inC {
		panic(shapeErr(c.name, fmt.Sprintf("(N,%d,H,W)", c.inC), s))
	}
	n, h, w := s[0], s[2], s[3]
	g, err := c.geom(h, w)
	if err != nil {
		panic(err)
	}
	oh, ow := g.OutHeight(), g.OutWidth()
	out := tensor.New(n, c.outC, oh, ow)
	src := x.Data()
	dst := out.Data()
	wData := c.weight.Value.Data()
	bData := c.bias.Value.Data()
	kArea := c.kernelH * c.kernelW
	for img := 0; img < n; img++ {
		for oc := 0; oc < c.outC; oc++ {
			wBase := oc * c.inC * kArea
			oBase := (img*c.outC + oc) * oh * ow
			for oy := 0; oy < oh; oy++ {
				iy0 := oy*c.strideH - c.padH
				for ox := 0; ox < ow; ox++ {
					ix0 := ox*c.strideW - c.padW
					sum := bData[oc]
					for ic := 0; ic < c.inC; ic++ {
						iBase := (img*c.inC + ic) * h * w
						kBase := wBase + ic*kArea
						for ky := 0; ky < c.kernelH; ky++ {
							iy := iy0 + ky
							if iy < 0 || iy >= h {
								continue
							}
							rowBase := iBase + iy*w
							kRow := kBase + ky*c.kernelW
							for kx := 0; kx < c.kernelW; kx++ {
								ix := ix0 + kx
								if ix < 0 || ix >= w {
									continue
								}
								sum += src[rowBase+ix] * wData[kRow+kx]
							}
						}
					}
					dst[oBase+oy*ow+ox] = sum
				}
			}
		}
	}
	return out
}

// DirectConvBackward computes what Conv2D.Backward does for the input x
// and output gradient grad with naive nested loops: the input gradient
// and the filter and bias gradients. Every input-gradient element sums
// its taps in ascending order, each tap the products of its one output
// position over the output channels, also ascending. The filter gradient
// groups its sums as the kernel does: blocks of max(1, 2^15/(K·P))
// images, and within a block each output channel's nonzero gradient
// entries in (image, position) order, 128 to a partial sum.
func DirectConvBackward(c *Conv2D, x, grad *tensor.Tensor) (dx, dw, db *tensor.Tensor) {
	s := x.Shape()
	n, h, w := s[0], s[2], s[3]
	g, err := c.geom(h, w)
	if err != nil {
		panic(err)
	}
	oh, ow := g.OutHeight(), g.OutWidth()
	kArea, k, p := c.kernelH*c.kernelW, c.inC*c.kernelH*c.kernelW, oh*ow
	src, gd, wd := x.Data(), grad.Data(), c.weight.Value.Data()
	dx = tensor.New(n, c.inC, h, w)
	for img := 0; img < n; img++ {
		for ic := 0; ic < c.inC; ic++ {
			for iy := 0; iy < h; iy++ {
				for ix := 0; ix < w; ix++ {
					var sum float64
					for ky := 0; ky < c.kernelH; ky++ {
						oy, ok := outPos(iy+c.padH-ky, c.strideH, oh)
						if !ok {
							continue
						}
						for kx := 0; kx < c.kernelW; kx++ {
							ox, ok := outPos(ix+c.padW-kx, c.strideW, ow)
							if !ok {
								continue
							}
							var d float64
							for oc := 0; oc < c.outC; oc++ {
								d += wd[oc*k+ic*kArea+ky*c.kernelW+kx] * gd[((img*c.outC+oc)*oh+oy)*ow+ox]
							}
							sum += d
						}
					}
					dx.Data()[((img*c.inC+ic)*h+iy)*w+ix] = sum
				}
			}
		}
	}
	// tapOf returns the input under tap t of output position q of image
	// img, and false on the padding.
	tapOf := func(img, q, t int) (float64, bool) {
		ic, ky, kx := t/kArea, t%kArea/c.kernelW, t%c.kernelW
		iy, ix := q/ow*c.strideH-c.padH+ky, q%ow*c.strideW-c.padW+kx
		if iy < 0 || iy >= h || ix < 0 || ix >= w {
			return 0, false
		}
		return src[((img*c.inC+ic)*h+iy)*w+ix], true
	}
	dw, db = tensor.New(c.outC, k), tensor.New(c.outC)
	block := max(1, (1<<15)/(k*p))
	for oc := 0; oc < c.outC; oc++ {
		var bias float64
		for img := 0; img < n; img++ {
			for q := 0; q < p; q++ {
				bias += gd[(img*c.outC+oc)*p+q]
			}
		}
		db.Data()[oc] = bias
		for b0 := 0; b0 < n; b0 += block {
			type entry struct{ img, q int }
			var list []entry
			flush := func() {
				for t := 0; t < k; t++ {
					var sum float64
					for _, e := range list {
						if v, ok := tapOf(e.img, e.q, t); ok {
							sum += gd[(e.img*c.outC+oc)*p+e.q] * v
						}
					}
					dw.Data()[oc*k+t] += sum
				}
				list = list[:0]
			}
			for img := b0; img < min(b0+block, n); img++ {
				for q := 0; q < p; q++ {
					if gd[(img*c.outC+oc)*p+q] != 0 {
						if list = append(list, entry{img, q}); len(list) == 128 {
							flush()
						}
					}
				}
			}
			flush()
		}
	}
	return dx, dw, db
}

// outPos returns the output position o with o·stride = at, and whether
// there is one below n.
func outPos(at, stride, n int) (int, bool) {
	if at < 0 || at%stride != 0 || at/stride >= n {
		return 0, false
	}
	return at / stride, true
}

func TestDirectConvPanicsOnBadInput(t *testing.T) {
	r := mathx.NewRNG(1)
	conv, err := NewConv2D(Conv2DConfig{Name: "c", In: 3, Out: 4, KernelH: 3, KernelW: 3, SamePad: true}, r)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("wrong channel count did not panic")
		}
	}()
	DirectConvForward(conv, tensor.New(1, 2, 8, 8))
}
