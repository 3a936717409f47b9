package tensor

import (
	"math"
	"strings"
	"testing"

	"github.com/stsl/stsl/internal/mathx"
)

// intoCase runs one …Into kernel against a destination.
type intoCase struct {
	name string
	run  func(dst *Tensor) *Tensor
}

func intoCases(r *mathx.RNG) []intoCase {
	a := Randn(r, 1, 6, 5)
	b := Randn(r, 1, 5, 4)
	bt := Randn(r, 1, 4, 5)
	at := Randn(r, 1, 6, 4)
	big := Randn(r, 1, 700, 30) // 700·30·20 multiply-adds: the fanned path
	bigW := Randn(r, 1, 20, 30)
	g := ConvGeom{Channels: 2, Height: 5, Width: 5, KernelH: 3, KernelW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
	x := Randn(r, 1, 2, 2, 5, 5)
	w, bias := Randn(r, 1, 3, 2*3*3), Randn(r, 1, 3)
	grad := Randn(r, 1, 2, 3, 5, 5)
	return []intoCase{
		{"MatMulInto", func(dst *Tensor) *Tensor { return MatMulInto(dst, a, b) }},
		{"MatMulTransAInto", func(dst *Tensor) *Tensor { return MatMulTransAInto(dst, a, at) }},
		{"MatMulTransBInto", func(dst *Tensor) *Tensor { return MatMulTransBInto(dst, a, bt) }},
		{"MatMulTransBInto-fanned", func(dst *Tensor) *Tensor { return MatMulTransBInto(dst, big, bigW) }},
		{"Conv2DInto", func(dst *Tensor) *Tensor { return Conv2DInto(dst, &ConvWork{}, x, w, bias, g) }},
		{"Conv2DInputGradInto", func(dst *Tensor) *Tensor { return Conv2DInputGradInto(dst, &ConvWork{}, grad, w, g) }},
		{"SumRowsInto", func(dst *Tensor) *Tensor { return SumRowsInto(dst, a) }},
		{"CloneInto", func(dst *Tensor) *Tensor { return a.CloneInto(dst) }},
	}
}

// TestIntoFormsOwnTheirDestination pins the …Into contract: a destination
// of the right shape is reused, and whatever it held before — here NaN in
// every element, padding included — leaves no trace in the result, which
// is bit-identical to the one written into a fresh tensor.
func TestIntoFormsOwnTheirDestination(t *testing.T) {
	for _, tc := range intoCases(mathx.NewRNG(11)) {
		t.Run(tc.name, func(t *testing.T) {
			fresh := tc.run(nil)
			stale := New(fresh.Shape()...)
			stale.Fill(math.NaN())
			got := tc.run(stale)
			if got != stale {
				t.Fatal("a destination of the right shape was not reused")
			}
			for i, v := range got.Data() {
				if math.Float64bits(v) != math.Float64bits(fresh.Data()[i]) {
					t.Fatalf("element %d = %v over a stale destination, %v over a fresh one", i, v, fresh.Data()[i])
				}
			}
			if wrong := tc.run(New(1)); !wrong.SameShape(fresh) {
				t.Fatalf("a destination of the wrong shape came back as %v, want %v", wrong.Shape(), fresh.Shape())
			}
		})
	}
}

// TestIntoFormsRejectAliasedDestination: a kernel that zeroes or
// overwrites its destination must refuse one that is also an operand.
func TestIntoFormsRejectAliasedDestination(t *testing.T) {
	r := mathx.NewRNG(12)
	sq := Randn(r, 1, 4, 4)
	g := ConvGeom{Channels: 1, Height: 4, Width: 4, KernelH: 1, KernelW: 1, StrideH: 1, StrideW: 1}
	img := Randn(r, 1, 1, 1, 4, 4)
	w, bias := Randn(r, 1, 1, 1), Randn(r, 1, 1)
	row := Randn(r, 1, 1, 4)
	cases := map[string]func(){
		"MatMulInto":          func() { MatMulInto(sq, sq, Randn(r, 1, 4, 4)) },
		"MatMulTransAInto":    func() { MatMulTransAInto(sq, Randn(r, 1, 4, 4), sq) },
		"MatMulTransBInto":    func() { MatMulTransBInto(sq, sq, sq) },
		"Conv2DInto":          func() { Conv2DInto(New(1, 1, 4, 4).aliasOf(img), &ConvWork{}, img, w, bias, g) },
		"Conv2DInputGradInto": func() { Conv2DInputGradInto(New(1, 1, 4, 4).aliasOf(img), &ConvWork{}, img, w, g) },
		"SumRowsInto":         func() { SumRowsInto(New(4).aliasOf(row), row) },
	}
	for name, f := range cases {
		if msg := panicMessage(f); !strings.Contains(msg, "shares storage") {
			t.Errorf("%s with an aliased destination: panic %q, want a shares-storage panic", name, msg)
		}
	}
}

// aliasOf points t's storage at o's (equal volumes), building the
// aliased destination that no public constructor can.
func (t *Tensor) aliasOf(o *Tensor) *Tensor {
	t.data = o.data[:len(t.data)]
	return t
}

// TestReuseDoesNotAllocate: a kernel's workspace check must not allocate
// when the shape already matches — New's variadic shape once escaped
// through its panic message, so every call site paid for a slice.
func TestReuseDoesNotAllocate(t *testing.T) {
	ws := New(16, 8, 4, 4)
	if n := testing.AllocsPerRun(100, func() { ws = Reuse(ws, 16, 8, 4, 4) }); n != 0 {
		t.Fatalf("Reuse of a matching workspace allocated %v times per call", n)
	}
	if got := Reuse(ws, 7, 8, 4, 4); got == ws || got.Dim(0) != 7 {
		t.Fatal("Reuse kept a workspace of the wrong shape")
	}
}
