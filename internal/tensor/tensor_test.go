package tensor

import (
	"bytes"
	"testing"
	"testing/quick"

	"github.com/stsl/stsl/internal/mathx"
)

func TestNewShapesAndSize(t *testing.T) {
	cases := []struct {
		shape []int
		size  int
	}{
		{nil, 1}, // scalar
		{[]int{3}, 3},
		{[]int{2, 3}, 6},
		{[]int{2, 3, 4, 5}, 120},
		{[]int{0, 7}, 0},
	}
	for _, tc := range cases {
		tt := New(tc.shape...)
		if tt.Size() != tc.size {
			t.Fatalf("New(%v).Size() = %d, want %d", tc.shape, tt.Size(), tc.size)
		}
		if tt.Dims() != len(tc.shape) {
			t.Fatalf("New(%v).Dims() = %d", tc.shape, tt.Dims())
		}
	}
}

func TestNewPanicsOnNegativeDim(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(-1) did not panic")
		}
	}()
	New(-1)
}

func TestAtSetRoundTrip(t *testing.T) {
	tt := New(2, 3, 4)
	v := 0.0
	for i := 0; i < 2; i++ {
		for j := 0; j < 3; j++ {
			for k := 0; k < 4; k++ {
				tt.Set(v, i, j, k)
				v++
			}
		}
	}
	// Row-major order means data should be 0..23 in sequence.
	for i, got := range tt.Data() {
		if got != float64(i) {
			t.Fatalf("data[%d] = %v, want %d", i, got, i)
		}
	}
	if got := tt.At(1, 2, 3); got != 23 {
		t.Fatalf("At(1,2,3) = %v, want 23", got)
	}
}

func TestAtPanicsOutOfRange(t *testing.T) {
	tt := New(2, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range At did not panic")
		}
	}()
	tt.At(2, 0)
}

func TestFromSliceValidation(t *testing.T) {
	got := FromSlice([]float64{1, 2, 3, 4}, 2, 2)
	if got.At(1, 1) != 4 {
		t.Fatalf("At(1,1) = %v", got.At(1, 1))
	}
	defer func() {
		if recover() == nil {
			t.Fatal("FromSlice with wrong length did not panic")
		}
	}()
	FromSlice([]float64{1, 2, 3}, 2, 2)
}

func TestCloneIsDeep(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3, 4}, 2, 2)
	b := a.Clone()
	b.Set(99, 0, 0)
	if a.At(0, 0) != 1 {
		t.Fatal("Clone shares storage with original")
	}
}

func TestReshape(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	b := a.Reshape(3, 2)
	if b.At(2, 1) != 6 {
		t.Fatalf("reshape At(2,1) = %v", b.At(2, 1))
	}
	c := a.Reshape(-1)
	if c.Dims() != 1 || c.Dim(0) != 6 {
		t.Fatalf("Reshape(-1) shape = %v", c.Shape())
	}
	d := a.Reshape(2, -1)
	if d.Dim(1) != 3 {
		t.Fatalf("Reshape(2,-1) shape = %v", d.Shape())
	}
}

func TestReshapePanicsOnVolumeMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("bad Reshape did not panic")
		}
	}()
	New(2, 3).Reshape(4, 2)
}

func TestArithmetic(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3, 4}, 2, 2)
	b := FromSlice([]float64{10, 20, 30, 40}, 2, 2)

	if got := a.Add(b); !got.Equal(FromSlice([]float64{11, 22, 33, 44}, 2, 2), 0) {
		t.Fatalf("Add = %v", got)
	}
	if got := b.Sub(a); !got.Equal(FromSlice([]float64{9, 18, 27, 36}, 2, 2), 0) {
		t.Fatalf("Sub = %v", got)
	}
	if got := a.Mul(b); !got.Equal(FromSlice([]float64{10, 40, 90, 160}, 2, 2), 0) {
		t.Fatalf("Mul = %v", got)
	}
	if got := a.Scale(2); !got.Equal(FromSlice([]float64{2, 4, 6, 8}, 2, 2), 0) {
		t.Fatalf("Scale = %v", got)
	}
	if got := a.Sum(); got != 10 {
		t.Fatalf("Sum = %v", got)
	}
	if got := a.Mean(); got != 2.5 {
		t.Fatalf("Mean = %v", got)
	}
	if got := a.Dot(b); got != 10+40+90+160 {
		t.Fatalf("Dot = %v", got)
	}
}

func TestAddPanicsOnShapeMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched Add did not panic")
		}
	}()
	New(2, 2).Add(New(2, 3))
}

func TestAXPY(t *testing.T) {
	a := FromSlice([]float64{1, 2}, 2)
	x := FromSlice([]float64{10, 10}, 2)
	a.AXPY(0.5, x)
	if !a.Equal(FromSlice([]float64{6, 7}, 2), 0) {
		t.Fatalf("AXPY = %v", a)
	}
}

func TestNorms(t *testing.T) {
	a := FromSlice([]float64{3, -4}, 2)
	if got := a.MaxAbs(); got != 4 {
		t.Fatalf("MaxAbs = %v", got)
	}
}

func TestMatMulSmall(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	b := FromSlice([]float64{7, 8, 9, 10, 11, 12}, 3, 2)
	got := MatMulInto(nil, a, b)
	want := FromSlice([]float64{58, 64, 139, 154}, 2, 2)
	if !got.Equal(want, 1e-12) {
		t.Fatalf("MatMul = %v, want %v", got, want)
	}
}

func TestMatMulIdentity(t *testing.T) {
	r := mathx.NewRNG(1)
	a := Randn(r, 1, 4, 4)
	eye := New(4, 4)
	for i := 0; i < 4; i++ {
		eye.Set(1, i, i)
	}
	if got := MatMulInto(nil, a, eye); !got.Equal(a, 1e-12) {
		t.Fatal("A·I != A")
	}
	if got := MatMulInto(nil, eye, a); !got.Equal(a, 1e-12) {
		t.Fatal("I·A != A")
	}
}

func TestMatMulTransVariantsAgree(t *testing.T) {
	r := mathx.NewRNG(2)
	a := Randn(r, 1, 5, 7)
	b := Randn(r, 1, 7, 3)
	want := MatMulInto(nil, a, b)

	gotA := MatMulTransAInto(nil, a.Transpose(), b)
	if !gotA.Equal(want, 1e-10) {
		t.Fatal("MatMulTransAInto(aᵀ, b) != a·b")
	}
	gotB := MatMulTransBInto(nil, a, b.Transpose())
	if !gotB.Equal(want, 1e-10) {
		t.Fatal("MatMulTransBInto(a, bᵀ) != a·b")
	}
}

func TestMatMulPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched MatMul did not panic")
		}
	}()
	MatMulInto(nil, New(2, 3), New(4, 2))
}

func TestTranspose(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	at := a.Transpose()
	if got := at.Shape(); got[0] != 3 || got[1] != 2 {
		t.Fatalf("transpose shape = %v", got)
	}
	if at.At(2, 1) != a.At(1, 2) {
		t.Fatal("transpose element mismatch")
	}
	if !a.Transpose().Transpose().Equal(a, 0) {
		t.Fatal("double transpose != identity")
	}
}

func TestAddRowVectorAndSumRows(t *testing.T) {
	m := FromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	v := FromSlice([]float64{10, 20, 30}, 3)
	m.AddRowVector(v)
	want := FromSlice([]float64{11, 22, 33, 14, 25, 36}, 2, 3)
	if !m.Equal(want, 0) {
		t.Fatalf("AddRowVector = %v", m)
	}
	sums := SumRowsInto(nil, m)
	if !sums.Equal(FromSlice([]float64{25, 47, 69}, 3), 1e-12) {
		t.Fatalf("SumRows = %v", sums)
	}
}

func TestMatMulQuickAssociativity(t *testing.T) {
	// Property: (A·B)·C == A·(B·C) for random small matrices.
	f := func(seed uint64) bool {
		r := mathx.NewRNG(seed)
		m, k, n, p := 2+r.Intn(4), 2+r.Intn(4), 2+r.Intn(4), 2+r.Intn(4)
		a := Randn(r, 1, m, k)
		b := Randn(r, 1, k, n)
		c := Randn(r, 1, n, p)
		left := MatMulInto(nil, MatMulInto(nil, a, b), c)
		right := MatMulInto(nil, a, MatMulInto(nil, b, c))
		return left.Equal(right, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestMatMulQuickDistributivity(t *testing.T) {
	// Property: A·(B+C) == A·B + A·C.
	f := func(seed uint64) bool {
		r := mathx.NewRNG(seed)
		m, k, n := 2+r.Intn(4), 2+r.Intn(4), 2+r.Intn(4)
		a := Randn(r, 1, m, k)
		b := Randn(r, 1, k, n)
		c := Randn(r, 1, k, n)
		left := MatMulInto(nil, a, b.Add(c))
		right := MatMulInto(nil, a, b).Add(MatMulInto(nil, a, c))
		return left.Equal(right, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestCodecRoundTrip(t *testing.T) {
	r := mathx.NewRNG(3)
	for _, shape := range [][]int{{1}, {5}, {2, 3}, {2, 3, 4}, {1, 3, 32, 32}} {
		orig := Randn(r, 1, shape...)
		var buf bytes.Buffer
		if _, err := orig.WriteTo(&buf); err != nil {
			t.Fatalf("WriteTo: %v", err)
		}
		var back Tensor
		if _, err := back.ReadFrom(&buf); err != nil {
			t.Fatalf("ReadFrom: %v", err)
		}
		if !orig.Equal(&back, 0) {
			t.Fatalf("round trip mismatch for shape %v", shape)
		}
	}
}

func TestCodecRejectsGarbage(t *testing.T) {
	var tt Tensor
	if _, err := tt.ReadFrom(bytes.NewReader([]byte("not a tensor at all"))); err == nil {
		t.Fatal("decoding garbage succeeded")
	}
	// Truncated valid prefix.
	var buf bytes.Buffer
	orig := New(4, 4)
	orig.Fill(1)
	if _, err := orig.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()-8]
	if _, err := tt.ReadFrom(bytes.NewReader(trunc)); err == nil {
		t.Fatal("decoding truncated stream succeeded")
	}
}

func TestCodecQuickRoundTrip(t *testing.T) {
	f := func(seed uint64) bool {
		r := mathx.NewRNG(seed)
		rank := 1 + r.Intn(4)
		shape := make([]int, rank)
		for i := range shape {
			shape[i] = 1 + r.Intn(5)
		}
		orig := Randn(r, 2, shape...)
		var buf bytes.Buffer
		if _, err := orig.WriteTo(&buf); err != nil {
			return false
		}
		var back Tensor
		if _, err := back.ReadFrom(&buf); err != nil {
			return false
		}
		return orig.Equal(&back, 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
