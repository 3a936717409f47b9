package tensor

import (
	"fmt"
	"math"
)

// Add returns t + o elementwise. Shapes must match.
func (t *Tensor) Add(o *Tensor) *Tensor {
	t.mustMatch(o, "Add")
	out := t.Clone()
	for i, v := range o.data {
		out.data[i] += v
	}
	return out
}

// AddInPlace adds o into t and returns t.
func (t *Tensor) AddInPlace(o *Tensor) *Tensor {
	t.mustMatch(o, "AddInPlace")
	for i, v := range o.data {
		t.data[i] += v
	}
	return t
}

// Sub returns t - o elementwise.
func (t *Tensor) Sub(o *Tensor) *Tensor {
	t.mustMatch(o, "Sub")
	out := t.Clone()
	for i, v := range o.data {
		out.data[i] -= v
	}
	return out
}

// Mul returns the elementwise (Hadamard) product t ⊙ o.
func (t *Tensor) Mul(o *Tensor) *Tensor {
	t.mustMatch(o, "Mul")
	out := t.Clone()
	for i, v := range o.data {
		out.data[i] *= v
	}
	return out
}

// Scale returns t * s elementwise.
func (t *Tensor) Scale(s float64) *Tensor {
	out := t.Clone()
	for i := range out.data {
		out.data[i] *= s
	}
	return out
}

// AXPY performs t += a*x in place (the BLAS axpy idiom) and returns t.
func (t *Tensor) AXPY(a float64, x *Tensor) *Tensor {
	t.mustMatch(x, "AXPY")
	for i, v := range x.data {
		t.data[i] += a * v
	}
	return t
}

// ApplyInPlace applies f to every element in place and returns t.
func (t *Tensor) ApplyInPlace(f func(float64) float64) *Tensor {
	for i, v := range t.data {
		t.data[i] = f(v)
	}
	return t
}

// Sum returns the sum of all elements.
func (t *Tensor) Sum() float64 {
	s := 0.0
	for _, v := range t.data {
		s += v
	}
	return s
}

// Mean returns the mean of all elements, or 0 for an empty tensor.
func (t *Tensor) Mean() float64 {
	if len(t.data) == 0 {
		return 0
	}
	return t.Sum() / float64(len(t.data))
}

// MaxAbs returns the largest absolute element value, or 0 for an empty
// tensor. Used for gradient-clipping and sanity checks.
func (t *Tensor) MaxAbs() float64 {
	m := 0.0
	for _, v := range t.data {
		if a := math.Abs(v); a > m {
			m = a
		}
	}
	return m
}

// Dot returns the inner product of t and o viewed as flat vectors.
func (t *Tensor) Dot(o *Tensor) float64 {
	t.mustMatch(o, "Dot")
	s := 0.0
	for i, v := range t.data {
		s += v * o.data[i]
	}
	return s
}

func (t *Tensor) mustMatch(o *Tensor, op string) {
	if !t.SameShape(o) {
		panic(fmt.Sprintf("tensor: %s shape mismatch %v vs %v", op, t.shape, o.shape))
	}
}

// MatMulInto writes the matrix product of two rank-2 tensors, (m×k)·(k×n)
// → (m×n), into dst (see the package doc for the …Into contract). Small
// products use an i-k-j loop whose innermost loop walks both operands with
// unit stride and skips zero A elements; large products switch to the
// cache-blocked kernel in block.go. Large products are split over output
// rows (see ParallelFor); so are the two transposed forms.
func MatMulInto(dst, a, b *Tensor) *Tensor {
	if a.Dims() != 2 || b.Dims() != 2 {
		panic(fmt.Sprintf("tensor: MatMul requires rank-2 operands, got %v and %v", a.shape, b.shape))
	}
	m, k := a.shape[0], a.shape[1]
	k2, n := b.shape[0], b.shape[1]
	if k != k2 {
		panic(fmt.Sprintf("tensor: MatMul inner dimension mismatch %v · %v", a.shape, b.shape))
	}
	dst = Reuse(dst, m, n)
	mustNotAlias("MatMulInto", dst, a, b)
	forOperands(m, m*k*n, operands{dst: dst.data, a: a.data, b: b.data, m: m, k: k, n: n}, matMulBody)
	return dst
}

// matMulBody zeroes and computes output rows [lo,hi) of a MatMulInto.
func matMulBody(ctx any, lo, hi int) {
	op := ctx.(*operands)
	clear(op.dst[lo*op.n : hi*op.n])
	matMulRange(op.a, op.b, op.dst, op.m, op.k, op.n, lo, hi)
}

// MatMulTransAInto writes aᵀ·b for rank-2 a (k×m) and b (k×n) → (m×n)
// into dst, without materialising the transpose.
func MatMulTransAInto(dst, a, b *Tensor) *Tensor {
	if a.Dims() != 2 || b.Dims() != 2 {
		panic(fmt.Sprintf("tensor: MatMulTransA requires rank-2 operands, got %v and %v", a.shape, b.shape))
	}
	k, m := a.shape[0], a.shape[1]
	k2, n := b.shape[0], b.shape[1]
	if k != k2 {
		panic(fmt.Sprintf("tensor: MatMulTransA inner dimension mismatch %v · %v", a.shape, b.shape))
	}
	dst = Reuse(dst, m, n)
	mustNotAlias("MatMulTransAInto", dst, a, b)
	forOperands(m, m*k*n, operands{dst: dst.data, a: a.data, b: b.data, m: m, k: k, n: n}, matMulTransABody)
	return dst
}

// matMulTransABody zeroes and computes output rows [lo,hi) of a
// MatMulTransAInto: every row still sums over the whole of k.
func matMulTransABody(ctx any, lo, hi int) {
	op := ctx.(*operands)
	clear(op.dst[lo*op.n : hi*op.n])
	matMulTransACols(op.a, op.b, op.dst, op.k, op.m, op.n, lo, hi)
}

// MatMulTransBInto writes a·bᵀ for rank-2 a (m×k) and b (n×k) → (m×n)
// into dst, without materialising the transpose. Every element is
// assigned a finished dot product, so dst needs no zeroing.
func MatMulTransBInto(dst, a, b *Tensor) *Tensor {
	if a.Dims() != 2 || b.Dims() != 2 {
		panic(fmt.Sprintf("tensor: MatMulTransB requires rank-2 operands, got %v and %v", a.shape, b.shape))
	}
	m, k := a.shape[0], a.shape[1]
	n, k2 := b.shape[0], b.shape[1]
	if k != k2 {
		panic(fmt.Sprintf("tensor: MatMulTransB inner dimension mismatch %v · %v", a.shape, b.shape))
	}
	dst = Reuse(dst, m, n)
	mustNotAlias("MatMulTransBInto", dst, a, b)
	forOperands(m, m*k*n, operands{dst: dst.data, a: a.data, b: b.data, m: m, k: k, n: n}, matMulTransBBody)
	return dst
}

// matMulTransBBody computes output rows [lo,hi) of a MatMulTransBInto.
func matMulTransBBody(ctx any, lo, hi int) {
	op := ctx.(*operands)
	matMulTransBRange(op.a, op.b, op.dst, op.m, op.k, op.n, lo, hi)
}

// Transpose returns the transpose of a rank-2 tensor.
func (t *Tensor) Transpose() *Tensor {
	if t.Dims() != 2 {
		panic(fmt.Sprintf("tensor: Transpose requires rank 2, got shape %v", t.shape))
	}
	m, n := t.shape[0], t.shape[1]
	out := New(n, m)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			out.data[j*m+i] = t.data[i*n+j]
		}
	}
	return out
}

// AddRowVector adds a length-n vector to every row of an (m×n) matrix in
// place and returns t. Used for bias addition in dense layers.
func (t *Tensor) AddRowVector(v *Tensor) *Tensor {
	if t.Dims() != 2 || v.Dims() != 1 || t.shape[1] != v.shape[0] {
		panic(fmt.Sprintf("tensor: AddRowVector shape mismatch %v + %v", t.shape, v.shape))
	}
	n := t.shape[1]
	for i := 0; i < t.shape[0]; i++ {
		row := t.data[i*n : (i+1)*n]
		for j, b := range v.data {
			row[j] += b
		}
	}
	return t
}

// SumRowsInto writes the column-wise sum of an (m×n) matrix t into dst as
// a length-n vector. Used for bias gradients.
func SumRowsInto(dst, t *Tensor) *Tensor {
	if t.Dims() != 2 {
		panic(fmt.Sprintf("tensor: SumRows requires rank 2, got %v", t.shape))
	}
	n := t.shape[1]
	dst = Reuse(dst, n)
	mustNotAlias("SumRowsInto", dst, t)
	dst.Zero()
	for i := 0; i < t.shape[0]; i++ {
		row := t.data[i*n : (i+1)*n]
		for j, v := range row {
			dst.data[j] += v
		}
	}
	return dst
}
