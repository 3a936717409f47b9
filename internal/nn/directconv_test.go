package nn

import (
	"fmt"
	"testing"
	"testing/quick"

	"github.com/stsl/stsl/internal/mathx"
	"github.com/stsl/stsl/internal/tensor"
)

// TestDirectConvMatchesConv2D: the naive direct convolution and
// Conv2D's channel-major lowering agree on random geometries — two
// independent implementations cross-checking each other — down to 1×1
// outputs and kernels, with or without padding, on non-square inputs.
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
		x := tensor.Randn(r, 1, 1+r.Intn(3), cfg.In, h, w)
		want := conv.Forward(x, false)
		got := DirectConvForward(conv, x)
		return got.Equal(want, 1e-10)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
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
