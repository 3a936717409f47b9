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

// Convolution is lowered channel-major, one image at a time, from a
// padded copy of the input: each of its C planes inside a zero border,
// Hp × Wp = (H+2·padH) × (W+2·padW). Tap t = (c, ky, kx) of output
// position (oy, ox) reads the padded image at its tap offset +
// oy·strideH·Wp + ox·strideW. An image's lowered matrix is K × oh·gw,
// for K = C·kH·kW taps, on a grid of oh rows of gw columns: at unit
// strides gw = Wp, so a tap's row is one contiguous run of the padded
// image and each grid row carries Wp − ow junk columns; at other strides
// gw = ow and a row is gathered. The filters are an (outC × K) matrix, so
// W·lowered plus the bias is the image's output on the grid, and its
// valid columns are the image's NCHW planes. A lowered matrix lives in
// its range's scratch only while its image is convolved; the padded
// input is what the filter gradient reads. The filter gradient is split
// over output channels and the output and input gradient over images:
// outputs, never a reduction (see ParallelFor).

// ConvWork is a convolution's workspace. Conv2DInto writes Padded, the
// input inside its zero border (N × C × Hp × Wp) and a zero tail of
// padTail elements, and AddConv2DParamGrads reads it. Scratch holds each
// range's lowered matrices while an image is convolved, and the filter
// gradient's bias sums, and nothing between calls. Both belong to the
// kernels, which size them: a caller only sets one to nil, to free it —
// Padded only when no AddConv2DParamGrads is pending, since that reads
// it.
type ConvWork struct {
	Padded  []float64
	Scratch []float64
	// offs holds the tap offsets of the last call's geometry followed by
	// its output-position offsets (see offsets).
	offs []int
}

// padTail is how far past the last padded image ws.Padded runs: the
// filter gradient's tap-row kernel loads four adjacent taps where a row
// has kW ≥ 1, so its last row's load ends up to three elements past the
// last element a tap reads.
const padTail = 3

// Conv2DInto convolves x (N, C, H, W) with the filters w (outC, K) and
// adds the bias b (outC), writing out (N, outC, outH, outW), and leaves
// the padded input in ws.Padded for AddConv2DParamGrads. out follows
// the …Into contract. Each output element is its bias plus its K
// products in ascending tap order.
func Conv2DInto(out *Tensor, ws *ConvWork, x, w, b *Tensor, g ConvGeom) *Tensor {
	if x.Dims() != 4 || x.shape[1] != g.Channels || x.shape[2] != g.Height || x.shape[3] != g.Width {
		panic(fmt.Sprintf("tensor: Conv2DInto input %v does not match geometry %+v", x.shape, g))
	}
	outC, k := convFilters("Conv2DInto", w, g)
	if b.Dims() != 1 || b.shape[0] != outC {
		panic(fmt.Sprintf("tensor: Conv2DInto bias %v does not match %d filters", b.shape, outC))
	}
	n, p := x.shape[0], g.OutHeight()*g.OutWidth()
	ws.Padded = grow(ws.Padded, n*g.paddedLen()+padTail)
	clear(ws.Padded[n*g.paddedLen():])
	out = Reuse(out, n, outC, g.OutHeight(), g.OutWidth())
	mustNotAlias("Conv2DInto", out, x, w, b)
	ws.forImages(n, n*outC*k*p, operands{dst: out.data, padded: ws.Padded, a: x.data, b: w.data, bias: b.data, m: outC, g: g}, conv2DBody)
	return out
}

// conv2DBody pads, lowers and convolves images [lo,hi) of a Conv2DInto.
func conv2DBody(ctx any, lo, hi int) {
	op := ctx.(*operands)
	g, outC, k := op.g, op.m, op.g.taps()
	l := g.grid()
	pg, in, img := l.size(), g.Channels*g.Height*g.Width, g.paddedLen()
	s := op.slot(lo)
	cols, res := s[:k*pg], s[k*pg:(k+outC)*pg]
	for i := lo; i < hi; i++ {
		xp := op.padded[i*img : (i+1)*img]
		g.pad(xp, op.a[i*in:(i+1)*in])
		for t, at := range op.taps {
			l.lower(cols[t*pg:(t+1)*pg], xp[at:])
		}
		gemm(res, op.b, cols, op.bias, outC, k, pg, k, 1)
		dst := op.dst[i*outC*l.oh*l.ow : (i+1)*outC*l.oh*l.ow]
		for r := 0; r < outC*l.oh; r++ {
			copy(dst[r*l.ow:(r+1)*l.ow], res[r*l.w:])
		}
	}
}

// AddConv2DParamGrads adds the filter and bias gradients of the
// Conv2DInto that left ws.Padded to dw (outC, K) and db (outC), given
// the output gradient grad (N, outC, outH, outW). The filter gradient
// sums grad times the padded input over the nonzero entries of grad
// only: in a conv, ReLU, max-pool block, pool and ReLU backward leave at
// least three in four zero. db[o] gains plane o of grad summed from zero
// in (image, position) order.
func AddConv2DParamGrads(dw, db, grad *Tensor, ws *ConvWork, g ConvGeom) {
	outC, k := convFilters("AddConv2DParamGrads", dw, g)
	if grad.Dims() != 4 || !grad.hasShape([]int{grad.shape[0], outC, g.OutHeight(), g.OutWidth()}) || !db.hasShape([]int{outC}) {
		panic(fmt.Sprintf("tensor: AddConv2DParamGrads output gradient %v and bias gradient %v do not match geometry %+v with %d filters",
			grad.shape, db.shape, g, outC))
	}
	n, p := grad.shape[0], g.OutHeight()*g.OutWidth()
	if len(ws.Padded) != n*g.paddedLen()+padTail {
		panic(fmt.Sprintf("tensor: AddConv2DParamGrads padded input of %d elements is not that of %d images under geometry %+v",
			len(ws.Padded), n, g))
	}
	ws.Scratch = grow(ws.Scratch, outC)
	taps, pos := ws.offsets(g)
	forOperands(outC, n*outC*k*p/4, operands{dst: dw.data, bias: db.data, a: grad.data, padded: ws.Padded, scratch: ws.Scratch, taps: taps, pos: pos, n: n, g: g}, convParamGradBody)
}

// nzChunk is how many nonzero gradient entries the filter gradient
// applies in one pass down the taps. It is a power of two:
// nzList.collectGo masks its index with nzChunk − 1.
const nzChunk = 128

// colsBlock sets the filter gradient's image blocks: block =
// colsBlock/(K·P) images, as many as fit 256 KiB of the column matrices
// the kernel once read (it reads the padded input now), at least one.
// Each output channel's nonzero list is applied at every block's end, so
// colsBlock fixes the filter gradient's summation blocks, and therefore
// its bits.
const colsBlock = 1 << 15

// convParamGradBody accumulates the gradients of output channels [lo,hi)
// of an AddConv2DParamGrads. It walks the images in blocks of
// colsBlock/(K·P), and lists each channel's nonzero entries across a
// whole block, so small outputs still make long lists. The list is
// applied whenever it holds nzChunk entries and at the block's end, and
// each application adds the listed entries to the channel's bias sum, in
// the scratch. Leaving the zeros out of that sum keeps its bits: it
// starts at +0, so it is never −0, and adding ±0 to anything else
// returns it unchanged.
func convParamGradBody(ctx any, lo, hi int) {
	op := ctx.(*operands)
	g, n, outC := op.g, op.n, len(op.bias)
	k, p, img := g.taps(), len(op.pos), g.paddedLen()
	dbs := op.scratch[lo:hi]
	clear(dbs)
	var nz nzList
	block := max(1, colsBlock/(k*p))
	for b0 := 0; b0 < n; b0 += block {
		for o := lo; o < hi; o++ {
			dw, db, cnt := op.dst[o*k:(o+1)*k], dbs[o-lo], 0
			for i := b0; i < min(b0+block, n); i++ {
				plane, pos := op.a[(i*outC+o)*p:(i*outC+o+1)*p], op.pos
				for len(plane) > 0 {
					var r int
					r, cnt = nz.collect(plane, pos, i*img, cnt)
					plane, pos = plane[r:], pos[r:]
					if cnt == nzChunk {
						db = addTapDots(dw, op.padded, nz.v[:], nz.off[:], op.taps, g.KernelW, db)
						cnt = 0
					}
				}
			}
			dbs[o-lo] = addTapDots(dw, op.padded, nz.v[:cnt], nz.off[:cnt], op.taps, g.KernelW, db)
		}
	}
	for o := lo; o < hi; o++ {
		op.bias[o] += dbs[o-lo]
	}
}

// nzList holds up to nzChunk nonzero entries of an output gradient for
// the filter gradient, on its stack: each entry's value, and the offset
// of its output position's first tap in the padded input.
type nzList struct {
	v   [nzChunk]float64
	off [nzChunk]int
}

// collect lists the nonzero entries (NaN included) of row after the n
// already listed, and stops when the list is full. Entry i of row sits
// at offset base + pos[i]. It returns how many entries of row it read
// and the new count. The kernel (nzScan) takes whole quads while a quad
// cannot overfill the list, and collectGo the rest, so the list is full
// at exactly the entry where collectGo alone would fill it.
func (l *nzList) collect(row []float64, pos []int, base, n int) (int, int) {
	r, n := l.scan(row, pos, base, n)
	if n == nzChunk {
		return r, n
	}
	i, n := l.collectGo(row[r:], pos[r:], base, n)
	return r + i, n
}

// collectGo is collect on the Go scan. The count stays in a register:
// every entry is written, and only a nonzero one is kept (the mask drops
// the bounds checks).
func (l *nzList) collectGo(row []float64, pos []int, base, n int) (int, int) {
	pos = pos[:len(row)]
	for i, x := range row {
		l.v[n&(nzChunk-1)], l.off[n&(nzChunk-1)] = x, base+pos[i]
		n += nonzero(x)
		if n == nzChunk {
			return i + 1, n
		}
	}
	return len(row), n
}

// nonzero returns 1 for a nonzero x (NaN included) and 0 for ±0; the
// compiler emits a SETcc for it, not a branch.
func nonzero(x float64) int {
	var n int
	if x != 0 {
		n = 1
	}
	return n
}

// addTapDots adds to each filter-gradient tap dw[t] the products of the
// listed gradient entries v with the padded input xp at their offsets
// off plus the tap's offset taps[t], and returns db plus the entries, in
// list order. Taps come in rows of kW adjacent offsets (tapOffsets); the
// kernel (tapRows) takes rows of up to four, addTapDotsGo the rest.
func addTapDots(dw, xp, v []float64, off, taps []int, kw int, db float64) float64 {
	if s, ok := tapRows(dw, xp, v, off, taps, kw, db); ok {
		return s
	}
	return addTapDotsGo(dw, xp, v, off, taps, db)
}

// addTapDotsGo is addTapDots on Go loops, four taps to a pass over the
// list. Every tap's sum starts at +0 and adds its products in list
// order, and is then added to dw[t].
func addTapDotsGo(dw, xp, v []float64, off, taps []int, db float64) float64 {
	off, taps = off[:len(v)], taps[:len(dw)]
	for _, x := range v {
		db += x
	}
	t := 0
	for ; t+4 <= len(dw); t += 4 {
		// Four taps cut to one length, so one bounds check covers them.
		n := len(xp) - taps[t+3]
		c0, c1, c2, c3 := xp[taps[t]:][:n], xp[taps[t+1]:][:n], xp[taps[t+2]:][:n], xp[taps[t+3]:][:n]
		var s0, s1, s2, s3 float64
		for j, x := range v {
			o := off[j]
			s0 += x * c0[o]
			s1 += x * c1[o]
			s2 += x * c2[o]
			s3 += x * c3[o]
		}
		dw[t] += s0
		dw[t+1] += s1
		dw[t+2] += s2
		dw[t+3] += s3
	}
	for ; t < len(dw); t++ {
		c0 := xp[taps[t]:]
		var s float64
		for j, x := range v {
			s += x * c0[off[j]]
		}
		dw[t] += s
	}
	return db
}

// Conv2DInputGradInto computes into dx (N, C, H, W) the gradient of a
// Conv2DInto with respect to its input, from the output gradient grad
// (N, outC, outH, outW) and the filters w. Per image, the output
// gradient is laid on the grid (junk columns zero), the dense tile
// writes the lowered gradient Wᵀ·grad from +0, and each of its tap rows
// is added back into a padded dx, whose interior is the image's dx.
// Every lowered-gradient element sums its outC products in ascending
// channel order, and every dx element its taps in ascending order.
func Conv2DInputGradInto(dx *Tensor, ws *ConvWork, grad, w *Tensor, g ConvGeom) *Tensor {
	outC, k := convFilters("Conv2DInputGradInto", w, g)
	p := g.OutHeight() * g.OutWidth()
	if grad.Dims() != 4 || grad.shape[1] != outC || grad.shape[2] != g.OutHeight() || grad.shape[3] != g.OutWidth() {
		panic(fmt.Sprintf("tensor: Conv2DInputGradInto gradient %v does not match geometry %+v", grad.shape, g))
	}
	n := grad.shape[0]
	dx = Reuse(dx, n, g.Channels, g.Height, g.Width)
	mustNotAlias("Conv2DInputGradInto", dx, grad, w)
	ws.forImages(n, n*outC*k*p, operands{dst: dx.data, a: grad.data, b: w.data, m: outC, g: g}, convInputGradBody)
	return dx
}

// convInputGradBody computes images [lo,hi) of a Conv2DInputGradInto.
// The junk columns of the gradient's grid are zero, so with finite
// filters their lowered gradient is ±0, and adding ±0 to a running sum
// that starts at +0 never changes its bits.
func convInputGradBody(ctx any, lo, hi int) {
	op := ctx.(*operands)
	g, outC, k, kw := op.g, op.m, op.g.taps(), op.g.KernelW
	l := g.grid()
	pg, in := l.size(), g.Channels*g.Height*g.Width
	s := op.slot(lo)
	grid, dcols, dxp := s[:outC*pg], s[outC*pg:(outC+k)*pg], s[(outC+k)*pg:][:g.paddedLen()]
	for i := lo; i < hi; i++ {
		src := op.a[i*outC*l.oh*l.ow : (i+1)*outC*l.oh*l.ow]
		for r := 0; r < outC*l.oh; r++ {
			row := grid[r*l.w : (r+1)*l.w]
			clear(row[copy(row[:l.ow], src[r*l.ow:]):])
		}
		gemm(dcols, op.b, grid, nil, k, outC, pg, 1, k)
		clear(dxp)
		for t := 0; t < k; t += kw {
			l.addTapRow(dxp[op.taps[t]:], dcols[t*pg:(t+kw)*pg], kw)
		}
		g.unpad(op.dst[i*in:(i+1)*in], dxp)
	}
}

// forImages runs body over a convolution's n images, and gives each
// range a slot of ws.Scratch for its lowered matrices and padded dx
// (see operands.slot).
func (ws *ConvWork) forImages(n, work int, op operands, body func(ctx any, lo, hi int)) {
	g := op.g
	op.n, op.parts = n, partsFor(n, work)
	l := g.grid()
	ws.Scratch = grow(ws.Scratch, op.parts*((g.taps()+op.m)*l.size()+g.paddedLen()))
	op.scratch = ws.Scratch
	op.taps, _ = ws.offsets(g)
	runOperands(n, op.parts, op, body)
}

// slot returns the scratch of the range that starts at image lo. Range
// i is [i·n/parts, (i+1)·n/parts), and parts ≤ n, so lo·parts/n lies in
// (i−1, i]: its ceiling is i.
func (op *operands) slot(lo int) []float64 {
	size := len(op.scratch) / op.parts
	i := (lo*op.parts + op.n - 1) / op.n
	return op.scratch[i*size : (i+1)*size]
}

// grow returns s resliced to n, or a new slice when s is too short.
func grow(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

// taps returns K, the length of one filter: C·kH·kW.
func (g ConvGeom) taps() int { return g.Channels * g.KernelH * g.KernelW }

func (g ConvGeom) paddedH() int { return g.Height + 2*g.PadH }
func (g ConvGeom) paddedW() int { return g.Width + 2*g.PadW }

// paddedLen returns the length of one padded image: C·Hp·Wp.
func (g ConvGeom) paddedLen() int { return g.Channels * g.paddedH() * g.paddedW() }

// grid is the layout of an image's lowered matrices: oh rows of w
// columns, the first ow of each valid. At unit strides the grid is wide,
// the padded image's own layout (w = Wp): a tap's row is one run of the
// padded image, and each grid row carries Wp − ow junk columns. At other
// strides it is narrow (w = ow), and each grid row is gathered.
type grid struct {
	oh, ow, sh, sw int // output extent and strides
	wp, w          int // padded image width and grid width
	wide           bool
}

func (g ConvGeom) grid() grid {
	l := grid{oh: g.OutHeight(), ow: g.OutWidth(), sh: g.StrideH, sw: g.StrideW, wp: g.paddedW()}
	l.wide = l.sh == 1 && l.sw == 1
	l.w = l.ow
	if l.wide {
		l.w = l.wp
	}
	return l
}

// size returns the grid's length, oh·w.
func (l *grid) size() int { return l.oh * l.w }

// offsets returns g's tap offsets (tapOffsets) and output-position
// offsets (posOffsets), both in ws.offs, which one allocation serves
// per geometry: an end-system that lives for one short session pays one.
func (ws *ConvWork) offsets(g ConvGeom) (taps, pos []int) {
	k, p := g.taps(), g.OutHeight()*g.OutWidth()
	if cap(ws.offs) < k+p {
		ws.offs = make([]int, k+p)
	}
	ws.offs = ws.offs[:k+p]
	return g.tapOffsets(ws.offs[:k:k]), g.posOffsets(ws.offs[k:])
}

// posOffsets returns in dst (reused when long enough) the offset of each
// output position (oy, ox), in row-major order, from output position
// (0, 0) in a padded image: oy·strideH·Wp + ox·strideW.
func (g ConvGeom) posOffsets(dst []int) []int {
	oh, ow := g.OutHeight(), g.OutWidth()
	if cap(dst) < oh*ow {
		dst = make([]int, 0, oh*ow)
	}
	dst = dst[:0]
	for oy := 0; oy < oh; oy++ {
		for ox := 0; ox < ow; ox++ {
			dst = append(dst, oy*g.StrideH*g.paddedW()+ox*g.StrideW)
		}
	}
	return dst
}

// tapOffsets returns in dst (reused when long enough) where each tap
// t = (c, ky, kx) of output position (0, 0) lies in a padded image.
func (g ConvGeom) tapOffsets(dst []int) []int {
	if cap(dst) < g.taps() {
		dst = make([]int, 0, g.taps())
	}
	dst = dst[:0]
	for c := 0; c < g.Channels; c++ {
		for ky := 0; ky < g.KernelH; ky++ {
			for kx := 0; kx < g.KernelW; kx++ {
				dst = append(dst, (c*g.paddedH()+ky)*g.paddedW()+kx)
			}
		}
	}
	return dst
}

// pad writes image x (C, H, W) into xp (C, Hp, Wp) inside a zero border.
func (g ConvGeom) pad(xp, x []float64) {
	hp, wp, end := g.paddedH(), g.paddedW(), 0
	for c := 0; c < g.Channels; c++ {
		for y := 0; y < g.Height; y++ {
			at := (c*hp+g.PadH+y)*wp + g.PadW
			clear(xp[end:at])
			end = at + copy(xp[at:at+g.Width], x[(c*g.Height+y)*g.Width:])
		}
	}
	clear(xp[end:])
}

// unpad copies the interior of a padded image xp into x (C, H, W).
func (g ConvGeom) unpad(x, xp []float64) {
	hp, wp := g.paddedH(), g.paddedW()
	for c := 0; c < g.Channels; c++ {
		for y := 0; y < g.Height; y++ {
			copy(x[(c*g.Height+y)*g.Width:][:g.Width], xp[(c*hp+g.PadH+y)*wp+g.PadW:])
		}
	}
}

// lower writes one tap's row of the lowered matrix from src, the padded
// image from the tap's offset on. On a wide grid the row is src itself,
// one copy; the last grid row's junk columns can run past the image, and
// are cleared.
func (l *grid) lower(row, src []float64) {
	if l.wide {
		clear(row[copy(row, src):])
		return
	}
	for oy := 0; oy < l.oh; oy++ {
		in, out := src[oy*l.sh*l.wp:], row[oy*l.ow:(oy+1)*l.ow]
		for ox := range out {
			out[ox] = in[ox*l.sw]
		}
	}
}

// addTapRow adds one tap row's kw rows of a lowered gradient, taps
// (c, ky, 0 … kw − 1), into dst, the padded dx from the row's first tap
// on. Every element gains its taps in ascending order, as from addRow
// tap by tap; on a wide grid the kernel (tapRowAdd) adds all kw at
// once.
func (l *grid) addTapRow(dst, rows []float64, kw int) {
	pg := l.size()
	if l.wide && tapRowAdd(dst, rows, pg, kw) {
		return
	}
	for kx := 0; kx < kw; kx++ {
		l.addRow(dst[kx:], rows[kx*pg:(kx+1)*pg])
	}
}

// addRow adds one tap's row of a lowered gradient into dst, the padded
// dx from the tap's offset on: the adjoint of lower, which leaves out
// what ran past the image.
func (l *grid) addRow(dst, row []float64) {
	if l.wide {
		row = row[:min(len(row), len(dst))]
		dst = dst[:len(row)]
		for i, v := range row {
			dst[i] += v
		}
		return
	}
	for oy := 0; oy < l.oh; oy++ {
		out := dst[oy*l.sh*l.wp:]
		for ox, v := range row[oy*l.ow : (oy+1)*l.ow] {
			out[ox*l.sw] += v
		}
	}
}

// convFilters checks that w is an (outC, K) filter matrix for g and
// returns outC and K.
func convFilters(op string, w *Tensor, g ConvGeom) (outC, k int) {
	if w.Dims() != 2 || w.shape[1] != g.taps() {
		panic(fmt.Sprintf("tensor: %s filters %v do not match geometry %+v", op, w.shape, g))
	}
	return w.shape[0], w.shape[1]
}
