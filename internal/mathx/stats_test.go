package mathx

import (
	"math"
	"testing"
	"testing/quick"
)

func TestMean(t *testing.T) {
	cases := []struct {
		name string
		in   []float64
		want float64
	}{
		{"empty", nil, 0},
		{"single", []float64{4}, 4},
		{"pair", []float64{2, 4}, 3},
		{"negatives", []float64{-1, 1, -3, 3}, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := Mean(tc.in); got != tc.want {
				t.Fatalf("Mean(%v) = %v, want %v", tc.in, got, tc.want)
			}
		})
	}
}

func TestVarianceAndStd(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Variance(xs); math.Abs(got-4) > 1e-12 {
		t.Fatalf("Variance = %v, want 4", got)
	}
	if got := Std(xs); math.Abs(got-2) > 1e-12 {
		t.Fatalf("Std = %v, want 2", got)
	}
	if got := Variance([]float64{5}); got != 0 {
		t.Fatalf("Variance of singleton = %v, want 0", got)
	}
}

func TestMaxArgMax(t *testing.T) {
	xs := []float64{3, -1, 7, 7, 0}
	if got := Max(xs); got != 7 {
		t.Fatalf("Max = %v", got)
	}
	if got := ArgMax(xs); got != 2 {
		t.Fatalf("ArgMax = %v, want first of ties (2)", got)
	}
}

func TestClamp(t *testing.T) {
	cases := []struct{ x, lo, hi, want float64 }{
		{5, 0, 10, 5},
		{-5, 0, 10, 0},
		{15, 0, 10, 10},
		{0, 0, 0, 0},
	}
	for _, tc := range cases {
		if got := Clamp(tc.x, tc.lo, tc.hi); got != tc.want {
			t.Fatalf("Clamp(%v,%v,%v) = %v, want %v", tc.x, tc.lo, tc.hi, got, tc.want)
		}
	}
}

func TestSoftmaxBasic(t *testing.T) {
	src := []float64{1, 2, 3}
	dst := make([]float64, 3)
	Softmax(dst, src)
	s := 0.0
	for i, v := range dst {
		if v <= 0 || v >= 1 {
			t.Fatalf("softmax[%d] = %v out of (0,1)", i, v)
		}
		s += v
	}
	if math.Abs(s-1) > 1e-12 {
		t.Fatalf("softmax sums to %v", s)
	}
	if !(dst[2] > dst[1] && dst[1] > dst[0]) {
		t.Fatalf("softmax not monotone: %v", dst)
	}
}

func TestSoftmaxAliasedAndStable(t *testing.T) {
	// In-place operation and stability with large logits.
	xs := []float64{1000, 1001, 1002}
	Softmax(xs, xs)
	s := 0.0
	for _, v := range xs {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("softmax unstable: %v", xs)
		}
		s += v
	}
	if math.Abs(s-1) > 1e-12 {
		t.Fatalf("softmax sums to %v", s)
	}
}

func TestSoftmaxQuickProperties(t *testing.T) {
	// Property: softmax output is a probability vector and is invariant to
	// adding a constant to all logits.
	f := func(raw []float64, shift float64) bool {
		if len(raw) == 0 || len(raw) > 32 {
			return true
		}
		for _, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 100 {
				return true
			}
		}
		if math.IsNaN(shift) || math.IsInf(shift, 0) || math.Abs(shift) > 100 {
			return true
		}
		a := make([]float64, len(raw))
		b := make([]float64, len(raw))
		shifted := make([]float64, len(raw))
		for i, v := range raw {
			shifted[i] = v + shift
		}
		Softmax(a, raw)
		Softmax(b, shifted)
		s := 0.0
		for i := range a {
			if a[i] < 0 || a[i] > 1 {
				return false
			}
			if math.Abs(a[i]-b[i]) > 1e-9 {
				return false
			}
			s += a[i]
		}
		return math.Abs(s-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestAlmostEqual(t *testing.T) {
	cases := []struct {
		a, b, tol float64
		want      bool
	}{
		{1, 1, 1e-9, true},
		{1, 1 + 1e-12, 1e-9, true},
		{1e12, 1e12 * (1 + 1e-12), 1e-9, true}, // relative tolerance
		{1, 2, 1e-9, false},
		{math.NaN(), 1, 1, false},
		{0, 1e-12, 1e-9, true},
	}
	for _, tc := range cases {
		if got := AlmostEqual(tc.a, tc.b, tc.tol); got != tc.want {
			t.Fatalf("AlmostEqual(%v,%v,%v) = %v, want %v", tc.a, tc.b, tc.tol, got, tc.want)
		}
	}
}
