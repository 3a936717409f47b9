package tensor

import "fmt"

// ConcatRows concatenates tensors along axis 0: parts of shape
// (n_i, d1, …, dk) become one tensor of shape (Σn_i, d1, …, dk). All
// parts must share rank and trailing dimensions. It is the stacking half
// of the server's micro-batch coalescing — per-client activation batches
// become one batch-axis-stacked operand for a single forward pass.
// Large concatenations copy the parts in parallel (see ParallelFor).
func ConcatRows(parts ...*Tensor) *Tensor {
	if len(parts) == 0 {
		panic("tensor: ConcatRows needs at least one tensor")
	}
	first := parts[0]
	if first.Dims() == 0 {
		panic("tensor: ConcatRows needs rank >= 1 operands")
	}
	rows := 0
	for i, p := range parts {
		if !SameTrailing(first, p) {
			panic(fmt.Sprintf("tensor: ConcatRows trailing-shape mismatch %v vs %v at part %d",
				first.shape, p.shape, i))
		}
		rows += p.shape[0]
	}
	shape := append([]int(nil), first.shape...)
	shape[0] = rows
	out := New(shape...)
	cp := partCopies{dst: make([][]float64, len(parts)), src: make([][]float64, len(parts))}
	off := 0
	for i, p := range parts {
		cp.dst[i], cp.src[i] = out.data[off:off+len(p.data)], p.data
		off += len(p.data)
	}
	ParallelFor(len(parts), len(out.data), copyParts, &cp)
	return out
}

// partCopies pairs the destinations and sources of a ConcatRows or
// SplitRows.
type partCopies struct{ dst, src [][]float64 }

// copyParts copies parts [lo,hi) of a *partCopies.
func copyParts(ctx any, lo, hi int) {
	cp := ctx.(*partCopies)
	for i := lo; i < hi; i++ {
		copy(cp.dst[i], cp.src[i])
	}
}

// SplitRows splits t along axis 0 into len(sizes) tensors where part i
// has sizes[i] rows and t's trailing dimensions — the inverse of
// ConcatRows, used to scatter a batched gradient back into per-client
// slices. The sizes must be non-negative and sum to t.Dim(0). Large
// splits copy the parts in parallel like ConcatRows.
func SplitRows(t *Tensor, sizes ...int) []*Tensor {
	if t.Dims() == 0 {
		panic("tensor: SplitRows needs rank >= 1 input")
	}
	total := 0
	for _, n := range sizes {
		if n < 0 {
			panic(fmt.Sprintf("tensor: SplitRows negative size in %v", sizes))
		}
		total += n
	}
	if total != t.shape[0] {
		panic(fmt.Sprintf("tensor: SplitRows sizes %v sum to %d, want %d rows", sizes, total, t.shape[0]))
	}
	rowVol := 1
	for _, d := range t.shape[1:] {
		rowVol *= d
	}
	out := make([]*Tensor, len(sizes))
	cp := partCopies{dst: make([][]float64, len(sizes)), src: make([][]float64, len(sizes))}
	off := 0
	for i, n := range sizes {
		shape := append([]int(nil), t.shape...)
		shape[0] = n
		out[i] = New(shape...)
		cp.dst[i], cp.src[i] = out[i].data, t.data[off:off+n*rowVol]
		off += n * rowVol
	}
	ParallelFor(len(sizes), len(t.data), copyParts, &cp)
	return out
}

// SameTrailing reports whether a and b share rank and every dimension
// except axis 0 — the batch-compatibility test ConcatRows enforces,
// exported so callers can pre-validate and return an error instead of
// hitting the panic.
func SameTrailing(a, b *Tensor) bool {
	if len(a.shape) != len(b.shape) || len(a.shape) == 0 {
		return false
	}
	for i := 1; i < len(a.shape); i++ {
		if a.shape[i] != b.shape[i] {
			return false
		}
	}
	return true
}
