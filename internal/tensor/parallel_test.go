package tensor

import (
	"fmt"
	"testing"

	"github.com/stsl/stsl/internal/mathx"
)

func TestMatMulTransBPMatchesSerial(t *testing.T) {
	r := mathx.NewRNG(2)
	a := Randn(r, 1, 400, 60)
	b := Randn(r, 1, 90, 60)
	want := MatMulTransBInto(nil, a, b)
	got := MatMulTransBPInto(nil, a, b)
	if !got.Equal(want, 0) {
		t.Fatal("parallel transB differs from serial (must be bitwise equal)")
	}
}

// panicMessage runs f and returns the textual panic it raised, or "" if
// it returned normally.
func panicMessage(f func()) (msg string) {
	defer func() {
		if r := recover(); r != nil {
			msg = fmt.Sprint(r)
		}
	}()
	f()
	return ""
}

// TestMatMulPBadRankMatchesSerialPanic regresses the validation-order
// bug: the parallel kernel read shape[1] before the rank guard, so a
// rank-1 (or rank-3) operand large enough for the fast path panicked
// with a raw index-out-of-range instead of the serial kernel's
// descriptive shape panic. The panic text must be identical to the
// serial kernel's for every malformed-rank combination.
func TestMatMulPBadRankMatchesSerialPanic(t *testing.T) {
	r := mathx.NewRNG(4)
	rank1 := Randn(r, 1, 600_000)      // would overflow shape[1] pre-fix
	rank3 := Randn(r, 1, 80, 100, 100) // above threshold as a flat volume
	rank2 := Randn(r, 1, 600, 600)     // valid partner above threshold
	cases := []struct {
		name string
		a, b *Tensor
	}{
		{"rank1-a", rank1, rank2},
		{"rank1-b", rank2, rank1},
		{"rank3-a", rank3, rank2},
		{"rank3-b", rank2, rank3},
		// Two large rank-2 operands whose inner dimensions disagree.
		{"inner-mismatch", Randn(r, 1, 600, 500), Randn(r, 1, 600, 400)},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			wantTB := panicMessage(func() { MatMulTransBInto(nil, tc.a, tc.b) })
			if wantTB == "" {
				t.Fatal("serial MatMulTransB accepted malformed operands")
			}
			if got := panicMessage(func() { MatMulTransBPInto(nil, tc.a, tc.b) }); got != wantTB {
				t.Errorf("MatMulTransBP panic %q, want serial kernel's %q", got, wantTB)
			}
		})
	}
}
