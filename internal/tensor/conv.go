package tensor

import "fmt"

// ConvGeom describes the geometry of a 2-D convolution or pooling window
// applied to an input of C channels and H×W spatial extent.
type ConvGeom struct {
	Channels, Height, Width int // input geometry
	KernelH, KernelW        int
	StrideH, StrideW        int
	PadH, PadW              int
}

// OutHeight returns the spatial height of the operation's output.
func (g ConvGeom) OutHeight() int {
	return (g.Height+2*g.PadH-g.KernelH)/g.StrideH + 1
}

// OutWidth returns the spatial width of the operation's output.
func (g ConvGeom) OutWidth() int {
	return (g.Width+2*g.PadW-g.KernelW)/g.StrideW + 1
}

// Validate reports whether the geometry is internally consistent.
func (g ConvGeom) Validate() error {
	switch {
	case g.Channels <= 0 || g.Height <= 0 || g.Width <= 0:
		return fmt.Errorf("tensor: conv geometry has non-positive input dims %+v", g)
	case g.KernelH <= 0 || g.KernelW <= 0:
		return fmt.Errorf("tensor: conv geometry has non-positive kernel %+v", g)
	case g.StrideH <= 0 || g.StrideW <= 0:
		return fmt.Errorf("tensor: conv geometry has non-positive stride %+v", g)
	case g.PadH < 0 || g.PadW < 0:
		return fmt.Errorf("tensor: conv geometry has negative padding %+v", g)
	case g.OutHeight() <= 0 || g.OutWidth() <= 0:
		return fmt.Errorf("tensor: conv geometry yields empty output %+v", g)
	}
	return nil
}

// Im2ColInto lowers a batch of images x with shape (N, C, H, W) into dst,
// a matrix of shape (N*outH*outW, C*kH*kW): each row is one receptive
// field. With the kernel flattened to (outC, C*kH*kW), convolution becomes
// one MatMulTransBInto per batch.
//
// Every element of dst is written: out-of-bounds (padding) positions get
// zeros, so a reused dst carries nothing over from its last use. Large
// batches are split over images (see ParallelFor).
func Im2ColInto(dst, x *Tensor, g ConvGeom) *Tensor {
	if x.Dims() != 4 {
		panic(fmt.Sprintf("tensor: Im2Col requires rank-4 input, got %v", x.shape))
	}
	n := x.shape[0]
	if x.shape[1] != g.Channels || x.shape[2] != g.Height || x.shape[3] != g.Width {
		panic(fmt.Sprintf("tensor: Im2Col input %v does not match geometry %+v", x.shape, g))
	}
	outH, outW := g.OutHeight(), g.OutWidth()
	rowLen := g.Channels * g.KernelH * g.KernelW
	dst = Reuse(dst, n*outH*outW, rowLen)
	mustNotAlias("Im2ColInto", dst, x)
	forOperands(n, len(dst.data), operands{dst: dst.data, a: x.data, g: g}, im2ColBody)
	return dst
}

// im2ColBody lowers images [lo,hi) of an Im2ColInto.
func im2ColBody(ctx any, lo, hi int) {
	op := ctx.(*operands)
	g, x, dst := op.g, op.a, op.dst
	outH, outW := g.OutHeight(), g.OutWidth()
	rowLen := g.Channels * g.KernelH * g.KernelW
	for img := lo; img < hi; img++ {
		imgBase := img * g.Channels * g.Height * g.Width
		for oy := 0; oy < outH; oy++ {
			iy0 := oy*g.StrideH - g.PadH
			for ox := 0; ox < outW; ox++ {
				ix0 := ox*g.StrideW - g.PadW
				row := dst[((img*outH+oy)*outW+ox)*rowLen:][:rowLen]
				ri := 0
				for c := 0; c < g.Channels; c++ {
					chBase := imgBase + c*g.Height*g.Width
					for ky := 0; ky < g.KernelH; ky++ {
						seg := row[ri : ri+g.KernelW]
						ri += g.KernelW
						iy := iy0 + ky
						if iy < 0 || iy >= g.Height {
							clear(seg)
							continue
						}
						rowBase := chBase + iy*g.Width
						for kx := range seg {
							if ix := ix0 + kx; ix >= 0 && ix < g.Width {
								seg[kx] = x[rowBase+ix]
							} else {
								seg[kx] = 0
							}
						}
					}
				}
			}
		}
	}
}

// Col2ImInto is the adjoint of Im2ColInto: it scatters a
// (N*outH*outW, C*kH*kW) matrix of per-receptive-field gradients back into
// dst, an image gradient of shape (N, C, H, W), accumulating where
// receptive fields overlap. dst is zeroed first. Large batches are split
// over images, each zeroed and summed by one range.
func Col2ImInto(dst, cols *Tensor, n int, g ConvGeom) *Tensor {
	outH, outW := g.OutHeight(), g.OutWidth()
	rowLen := g.Channels * g.KernelH * g.KernelW
	if cols.Dims() != 2 || cols.shape[0] != n*outH*outW || cols.shape[1] != rowLen {
		panic(fmt.Sprintf("tensor: Col2Im input %v does not match n=%d geometry %+v", cols.shape, n, g))
	}
	dst = Reuse(dst, n, g.Channels, g.Height, g.Width)
	mustNotAlias("Col2ImInto", dst, cols)
	forOperands(n, len(cols.data), operands{dst: dst.data, a: cols.data, g: g}, col2ImBody)
	return dst
}

// col2ImBody zeroes images [lo,hi) of a Col2ImInto's dst and scatters
// their receptive fields into them. A receptive field only reaches its
// own image, so each image is summed in the serial order.
func col2ImBody(ctx any, lo, hi int) {
	op := ctx.(*operands)
	g, cols, dst := op.g, op.a, op.dst
	outH, outW := g.OutHeight(), g.OutWidth()
	rowLen := g.Channels * g.KernelH * g.KernelW
	plane := g.Channels * g.Height * g.Width
	clear(dst[lo*plane : hi*plane])
	for img := lo; img < hi; img++ {
		imgBase := img * plane
		for oy := 0; oy < outH; oy++ {
			iy0 := oy*g.StrideH - g.PadH
			for ox := 0; ox < outW; ox++ {
				ix0 := ox*g.StrideW - g.PadW
				row := cols[((img*outH+oy)*outW+ox)*rowLen:][:rowLen]
				ri := 0
				for c := 0; c < g.Channels; c++ {
					chBase := imgBase + c*g.Height*g.Width
					for ky := 0; ky < g.KernelH; ky++ {
						iy := iy0 + ky
						if iy < 0 || iy >= g.Height {
							ri += g.KernelW
							continue
						}
						rowBase := chBase + iy*g.Width
						for kx := 0; kx < g.KernelW; kx++ {
							ix := ix0 + kx
							if ix >= 0 && ix < g.Width {
								dst[rowBase+ix] += row[ri]
							}
							ri++
						}
					}
				}
			}
		}
	}
}

// Pad2D zero-pads the two trailing spatial dimensions of an (N, C, H, W)
// tensor by padH rows on top/bottom and padW columns on left/right.
func Pad2D(x *Tensor, padH, padW int) *Tensor {
	if x.Dims() != 4 {
		panic(fmt.Sprintf("tensor: Pad2D requires rank-4 input, got %v", x.shape))
	}
	if padH < 0 || padW < 0 {
		panic("tensor: Pad2D negative padding")
	}
	if padH == 0 && padW == 0 {
		return x.Clone()
	}
	n, c, h, w := x.shape[0], x.shape[1], x.shape[2], x.shape[3]
	out := New(n, c, h+2*padH, w+2*padW)
	ow := w + 2*padW
	for img := 0; img < n; img++ {
		for ch := 0; ch < c; ch++ {
			srcBase := (img*c + ch) * h * w
			dstBase := (img*c+ch)*(h+2*padH)*ow + padH*ow + padW
			for y := 0; y < h; y++ {
				copy(out.data[dstBase+y*ow:dstBase+y*ow+w], x.data[srcBase+y*w:srcBase+(y+1)*w])
			}
		}
	}
	return out
}
