package baseline

import (
	"errors"
	"math"
	"testing"

	"github.com/stsl/stsl/internal/nn"
	"github.com/stsl/stsl/internal/tensor"
)

// paramSet builds one single-param set holding the given values.
func paramSet(vals ...float64) []*nn.Param {
	t := tensor.New(len(vals))
	copy(t.Data(), vals)
	return []*nn.Param{{Name: "w", Value: t}}
}

func TestCopyParams(t *testing.T) {
	dst, src := paramSet(0, 0, 0), paramSet(1, 2, 3)
	if err := copyParams(dst, src); err != nil {
		t.Fatal(err)
	}
	for i, want := range []float64{1, 2, 3} {
		if got := dst[0].Value.Data()[i]; got != want {
			t.Fatalf("dst[%d] = %v, want %v", i, got, want)
		}
	}
	if err := copyParams(dst, []*nn.Param{}); err == nil {
		t.Fatal("copyParams accepted mismatched set lengths")
	}
}

// TestCopyParamsRejectsNonFinite: pulling poisoned global weights into a
// client is never silent, and a rejected copy leaves dst untouched.
func TestCopyParamsRejectsNonFinite(t *testing.T) {
	if err := copyParams(paramSet(0, 0), paramSet(1, math.NaN())); !errors.Is(err, errNonFinite) {
		t.Fatalf("copyParams of NaN set: %v, want errNonFinite", err)
	}
	dst := paramSet(7, 7)
	if err := copyParams(dst, paramSet(1, math.Inf(1))); !errors.Is(err, errNonFinite) {
		t.Fatalf("copyParams of Inf set: %v, want errNonFinite", err)
	}
	if dst[0].Value.Data()[0] != 7 {
		t.Fatal("rejected copyParams mutated dst")
	}
}

func TestAverageParamsUniform(t *testing.T) {
	a, b := paramSet(1, 2), paramSet(3, 6)
	dst := paramSet(0, 0)
	if err := averageParams(dst, [][]*nn.Param{a, b}, nil); err != nil {
		t.Fatal(err)
	}
	for i, want := range []float64{2, 4} {
		if got := dst[0].Value.Data()[i]; math.Abs(got-want) > 1e-12 {
			t.Fatalf("dst[%d] = %v, want %v", i, got, want)
		}
	}
}

func TestAverageParamsWeighted(t *testing.T) {
	a, b := paramSet(0), paramSet(10)
	dst := paramSet(0)
	// Weights need not be normalised: 1:3 ≡ 0.25:0.75.
	if err := averageParams(dst, [][]*nn.Param{a, b}, []float64{1, 3}); err != nil {
		t.Fatal(err)
	}
	if got := dst[0].Value.Data()[0]; math.Abs(got-7.5) > 1e-12 {
		t.Fatalf("weighted average = %v, want 7.5", got)
	}
}

// averageParams must be safe when dst aliases one of the source sets.
func TestAverageParamsAliasesSource(t *testing.T) {
	a, b := paramSet(2, 4), paramSet(4, 8)
	if err := averageParams(a, [][]*nn.Param{a, b}, nil); err != nil {
		t.Fatal(err)
	}
	for i, want := range []float64{3, 6} {
		if got := a[0].Value.Data()[i]; math.Abs(got-want) > 1e-12 {
			t.Fatalf("aliased average[%d] = %v, want %v", i, got, want)
		}
	}
}

func TestAverageParamsRejectsBadInput(t *testing.T) {
	a := paramSet(1)
	if err := averageParams(a, nil, nil); err == nil {
		t.Fatal("averageParams accepted zero sets")
	}
	if err := averageParams(a, [][]*nn.Param{a}, []float64{1, 2}); err == nil {
		t.Fatal("averageParams accepted weight/set count mismatch")
	}
	if err := averageParams(a, [][]*nn.Param{a}, []float64{-1}); err == nil {
		t.Fatal("averageParams accepted a negative weight")
	}
	if err := averageParams(a, [][]*nn.Param{a}, []float64{0}); err == nil {
		t.Fatal("averageParams accepted all-zero weights")
	}
	if err := averageParams(a, [][]*nn.Param{paramSet(1), {}}, nil); err == nil {
		t.Fatal("averageParams accepted a structurally different set")
	}
}

// TestAverageParamsRejectsNonFinite: the mean refuses to fold a NaN or
// Inf set in — the error is typed so callers can distinguish poisoning
// from structural misuse.
func TestAverageParamsRejectsNonFinite(t *testing.T) {
	dst := paramSet(0, 0)
	err := averageParams(dst, [][]*nn.Param{paramSet(1, 2), paramSet(math.NaN(), 2)}, nil)
	if !errors.Is(err, errNonFinite) {
		t.Fatalf("averageParams on NaN set: %v, want errNonFinite", err)
	}
	err = averageParams(dst, [][]*nn.Param{paramSet(1, math.Inf(1))}, nil)
	if !errors.Is(err, errNonFinite) {
		t.Fatalf("averageParams on Inf set: %v, want errNonFinite", err)
	}
}
