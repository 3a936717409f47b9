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

// Convolution is lowered channel-major, one image at a time. An image's
// column matrix is K × P, for K = C·kH·kW filter taps and P = outH·outW
// output positions: row (c, ky, kx) is input channel c shifted by
// (ky, kx) under every output position, built from shifted row copies.
// The filters are an (outC × K) matrix, so W·cols plus the bias is the
// image's (outC × P) output — already its NCHW planes. The filter
// gradient is split over output channels and the output and input
// gradient over images: outputs, never a reduction (see ParallelFor).

// Conv2DInto convolves x (N, C, H, W) with the filters w (outC, K) and
// adds the bias b (outC), writing out (N, outC, outH, outW), and leaves
// each image's column matrix in cols (N, K, outH·outW) for
// AddConv2DParamGrads and Conv2DInputGradInto. Both destinations follow
// the …Into contract. Each output element is its bias plus its K
// products in ascending tap order.
func Conv2DInto(out, cols, x, w, b *Tensor, g ConvGeom) (*Tensor, *Tensor) {
	if x.Dims() != 4 || x.shape[1] != g.Channels || x.shape[2] != g.Height || x.shape[3] != g.Width {
		panic(fmt.Sprintf("tensor: Conv2DInto input %v does not match geometry %+v", x.shape, g))
	}
	outC, k := convFilters("Conv2DInto", w, g)
	if b.Dims() != 1 || b.shape[0] != outC {
		panic(fmt.Sprintf("tensor: Conv2DInto bias %v does not match %d filters", b.shape, outC))
	}
	n, p := x.shape[0], g.OutHeight()*g.OutWidth()
	cols = Reuse(cols, n, k, p)
	out = Reuse(out, n, outC, g.OutHeight(), g.OutWidth())
	mustNotAlias("Conv2DInto", cols, x, w, b)
	mustNotAlias("Conv2DInto", out, x, w, b, cols)
	forOperands(n, n*outC*k*p, operands{dst: out.data, cols: cols.data, a: x.data, b: w.data, bias: b.data, g: g}, conv2DBody)
	return out, cols
}

// conv2DBody lowers and convolves images [lo,hi) of a Conv2DInto.
func conv2DBody(ctx any, lo, hi int) {
	op := ctx.(*operands)
	g := op.g
	outC, k, p := len(op.bias), g.taps(), g.OutHeight()*g.OutWidth()
	in := g.Channels * g.Height * g.Width
	for img := lo; img < hi; img++ {
		cols := op.cols[img*k*p : (img+1)*k*p]
		fillCols(cols, op.a[img*in:(img+1)*in], g)
		gemm(op.dst[img*outC*p:(img+1)*outC*p], op.b, cols, op.bias, outC, k, p, k, 1)
	}
}

// AddConv2DParamGrads adds the filter and bias gradients of the
// Conv2DInto that left cols to dw (outC, K) and db (outC), given the
// output gradient grad (N, outC, outH, outW). The filter gradient sums
// grad·colsᵀ over the nonzero entries of grad only: in a conv, ReLU,
// max-pool block, pool and ReLU backward leave at least three in four
// zero. db[o] gains plane o of grad summed from zero in (image,
// position) order.
func AddConv2DParamGrads(dw, db, grad, cols *Tensor) {
	if cols.Dims() != 3 || grad.Dims() != 4 || grad.shape[0] != cols.shape[0] || grad.shape[2]*grad.shape[3] != cols.shape[2] {
		panic(fmt.Sprintf("tensor: AddConv2DParamGrads gradient %v does not match columns %v", grad.shape, cols.shape))
	}
	n, outC, k, p := cols.shape[0], grad.shape[1], cols.shape[1], cols.shape[2]
	if !dw.hasShape([]int{outC, k}) || !db.hasShape([]int{outC}) {
		panic(fmt.Sprintf("tensor: AddConv2DParamGrads gradients %v, %v do not match (%d, %d)", dw.shape, db.shape, outC, k))
	}
	forOperands(outC, n*outC*k*p/4, operands{dst: dw.data, bias: db.data, a: grad.data, cols: cols.data, m: n, k: k, n: p}, convParamGradBody)
}

// nzList collects up to nzChunk nonzero entries of an output gradient
// for the filter gradient, which keeps it on its stack: the entry's
// value and its offset into the column matrices.
type nzList struct {
	n   int
	v   [nzChunk]float64
	off [nzChunk]int
}

// nzChunk is how many nonzero gradient entries the filter gradient
// applies in one pass down the taps.
const nzChunk = 128

// add appends the entry when v is nonzero, and reports whether the list
// is full.
func (l *nzList) add(v float64, off int) bool {
	l.v[l.n], l.off[l.n] = v, off
	if v != 0 {
		l.n++
	}
	return l.n == nzChunk
}

// colsBlock bounds, in float64, the column matrices convParamGradBody
// applies every output channel of its range to before it moves on, so
// that they stay in cache: 2^15 is 256 KiB.
const colsBlock = 1 << 15

// convParamGradBody accumulates the gradients of output channels [lo,hi)
// of an AddConv2DParamGrads. The filter gradient walks the images in
// blocks whose column matrices fit colsBlock, and lists each channel's
// nonzero entries across a whole block, so small outputs still make long
// lists.
func convParamGradBody(ctx any, lo, hi int) {
	op := ctx.(*operands)
	n, k, p := op.m, op.k, op.n
	outC := len(op.bias)
	for o := lo; o < hi; o++ {
		var db float64
		for img := 0; img < n; img++ {
			for _, v := range op.a[(img*outC+o)*p : (img*outC+o+1)*p] {
				db += v
			}
		}
		op.bias[o] += db
	}
	var nz nzList
	block := max(1, colsBlock/(k*p))
	for b0 := 0; b0 < n; b0 += block {
		for o := lo; o < hi; o++ {
			dw := op.dst[o*k : (o+1)*k]
			for img := b0; img < min(b0+block, n); img++ {
				for q, v := range op.a[(img*outC+o)*p : (img*outC+o+1)*p] {
					if nz.add(v, img*k*p+q) {
						addColumnDots(dw, op.cols, &nz, p)
					}
				}
			}
			addColumnDots(dw, op.cols, &nz, p)
		}
	}
}

// addColumnDots adds to each filter-gradient tap dw[r] the products of
// the listed gradient entries with their column-matrix entries in row r,
// four taps to a pass over the list, and empties the list.
func addColumnDots(dw, cols []float64, l *nzList, p int) {
	v, off := l.v[:l.n], l.off[:l.n]
	off = off[:len(v)]
	r := 0
	for ; r+4 <= len(dw); r += 4 {
		// Four rows cut to one length, so one bounds check covers them.
		n := len(cols) - (r+3)*p
		c0, c1, c2, c3 := cols[r*p:][:n], cols[(r+1)*p:][:n], cols[(r+2)*p:][:n], cols[(r+3)*p:][:n]
		var s0, s1, s2, s3 float64
		for j, x := range v {
			o := off[j]
			s0 += x * c0[o]
			s1 += x * c1[o]
			s2 += x * c2[o]
			s3 += x * c3[o]
		}
		dw[r] += s0
		dw[r+1] += s1
		dw[r+2] += s2
		dw[r+3] += s3
	}
	for ; r < len(dw); r++ {
		c0 := cols[r*p:]
		var s float64
		for j, x := range v {
			s += x * c0[off[j]]
		}
		dw[r] += s
	}
	l.n = 0
}

// Conv2DInputGradInto computes into dx (N, C, H, W) the gradient of a
// Conv2DInto with respect to its input, from the output gradient grad
// (N, outC, outH, outW) and the filters w. It overwrites cols, so the
// filter gradient must have read them first: per image, the column
// gradient Wᵀ·grad is written into the image's own cols by the dense
// tile from +0, and each of its rows is added, shifted back by its tap,
// into dx. Every column-gradient element sums its outC products in
// ascending channel order.
func Conv2DInputGradInto(dx, cols, grad, w *Tensor, g ConvGeom) *Tensor {
	outC, k := convFilters("Conv2DInputGradInto", w, g)
	p := g.OutHeight() * g.OutWidth()
	if grad.Dims() != 4 || grad.shape[1] != outC || grad.shape[2] != g.OutHeight() || grad.shape[3] != g.OutWidth() ||
		!cols.hasShape([]int{grad.shape[0], k, p}) {
		panic(fmt.Sprintf("tensor: Conv2DInputGradInto gradient %v and columns %v do not match geometry %+v", grad.shape, cols.shape, g))
	}
	n := grad.shape[0]
	dx = Reuse(dx, n, g.Channels, g.Height, g.Width)
	mustNotAlias("Conv2DInputGradInto", dx, cols, grad, w)
	forOperands(n, n*outC*k*p, operands{dst: dx.data, cols: cols.data, a: grad.data, b: w.data, m: outC, g: g}, convInputGradBody)
	return dx
}

// convInputGradBody computes images [lo,hi) of a Conv2DInputGradInto.
func convInputGradBody(ctx any, lo, hi int) {
	op := ctx.(*operands)
	g := op.g
	outC, k, p := op.m, g.taps(), g.OutHeight()*g.OutWidth()
	in := g.Channels * g.Height * g.Width
	for img := lo; img < hi; img++ {
		dcols := op.cols[img*k*p : (img+1)*k*p]
		gemm(dcols, op.b, op.a[img*outC*p:(img+1)*outC*p], nil, k, outC, p, 1, k)
		dx := op.dst[img*in : (img+1)*in]
		clear(dx)
		addColRows(dx, dcols, g)
	}
}

// taps returns K, the length of one filter: C·kH·kW.
func (g ConvGeom) taps() int { return g.Channels * g.KernelH * g.KernelW }

// convFilters checks that w is an (outC, K) filter matrix for g and
// returns outC and K.
func convFilters(op string, w *Tensor, g ConvGeom) (outC, k int) {
	if w.Dims() != 2 || w.shape[1] != g.taps() {
		panic(fmt.Sprintf("tensor: %s filters %v do not match geometry %+v", op, w.shape, g))
	}
	return w.shape[0], w.shape[1]
}

// validOut returns the output positions [lo, hi) of an axis of n whose
// tap k lands inside an input axis of size: 0 ≤ o·stride − pad + k < size.
func validOut(n, stride, pad, k, size int) (lo, hi int) {
	lo = min(max(ceilDiv(pad-k, stride), 0), n)
	hi = min(max(ceilDiv(size+pad-k, stride), lo), n)
	return lo, hi
}

// ceilDiv returns ⌈a/b⌉ for b > 0.
func ceilDiv(a, b int) int {
	if a <= 0 {
		return -(-a / b)
	}
	return (a + b - 1) / b
}

// fillCols writes the column matrix of one image x (C, H, W) into dst
// (K × outH·outW), padding positions included as zeros.
func fillCols(dst, x []float64, g ConvGeom) {
	oh, ow := g.OutHeight(), g.OutWidth()
	p, plane, kArea := oh*ow, g.Height*g.Width, g.KernelH*g.KernelW
	for ky := 0; ky < g.KernelH; ky++ {
		y0, y1 := validOut(oh, g.StrideH, g.PadH, ky, g.Height)
		for kx := 0; kx < g.KernelW; kx++ {
			x0, x1 := validOut(ow, g.StrideW, g.PadW, kx, g.Width)
			// At unit strides with outW = W the tap's rows lie back to
			// back in x as they do in dst: one copy moves them all, and
			// the border columns it fills from the neighbouring rows are
			// cleared after it.
			block := g.StrideH == 1 && g.StrideW == 1 && ow == g.Width && y1 > y0 && x1 > x0
			for c := 0; c < g.Channels; c++ {
				r := c*kArea + ky*g.KernelW + kx
				row := dst[r*p : (r+1)*p]
				clear(row[:y0*ow])
				clear(row[y1*ow:])
				if block {
					copy(row[y0*ow+x0:(y1-1)*ow+x1], x[c*plane+(y0-g.PadH+ky)*g.Width+x0-g.PadW+kx:])
				}
				for oy := y0; oy < y1; oy++ {
					seg := row[oy*ow : (oy+1)*ow]
					clear(seg[:x0])
					clear(seg[x1:])
					if block {
						continue
					}
					src := x[c*plane+(oy*g.StrideH-g.PadH+ky)*g.Width:][:g.Width]
					ix := x0*g.StrideW - g.PadW + kx
					if g.StrideW == 1 {
						copy(seg[x0:x1], src[ix:])
						continue
					}
					for ox := x0; ox < x1; ox++ {
						seg[ox] = src[ix]
						ix += g.StrideW
					}
				}
			}
		}
	}
}

// addColRows adds the rows of one image's column gradient cols
// (K × outH·outW) into its input gradient dx (C, H, W): the adjoint of
// fillCols, each row shifted back by its tap. Every input element sums
// its taps in ascending order.
func addColRows(dx, cols []float64, g ConvGeom) {
	oh, ow := g.OutHeight(), g.OutWidth()
	p, plane, kArea := oh*ow, g.Height*g.Width, g.KernelH*g.KernelW
	for ky := 0; ky < g.KernelH; ky++ {
		y0, y1 := validOut(oh, g.StrideH, g.PadH, ky, g.Height)
		for kx := 0; kx < g.KernelW; kx++ {
			x0, x1 := validOut(ow, g.StrideW, g.PadW, kx, g.Width)
			for c := 0; c < g.Channels; c++ {
				r := c*kArea + ky*g.KernelW + kx
				row := cols[r*p : (r+1)*p]
				for oy := y0; oy < y1; oy++ {
					seg := row[oy*ow+x0 : oy*ow+x1]
					dst := dx[c*plane+(oy*g.StrideH-g.PadH+ky)*g.Width:][:g.Width]
					ix := x0*g.StrideW - g.PadW + kx
					for _, v := range seg {
						dst[ix] += v
						ix += g.StrideW
					}
				}
			}
		}
	}
}
