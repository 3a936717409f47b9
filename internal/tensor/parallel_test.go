package tensor

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/stsl/stsl/internal/mathx"
)

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

// atWidth runs f with GOMAXPROCS set to procs.
func atWidth(procs int, f func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	f()
}

// sameBits reports whether a and b have one shape and equal bits.
func sameBits(a, b *Tensor) bool {
	if !a.SameShape(b) {
		return false
	}
	for i, v := range a.data {
		if math.Float64bits(v) != math.Float64bits(b.data[i]) {
			return false
		}
	}
	return true
}

// fannedCase is one kernel that fans out, at a volume above
// parallelThreshold.
type fannedCase struct {
	name string
	run  func() *Tensor
}

func fannedCases() []fannedCase {
	r := mathx.NewRNG(21)
	// Rows of a product: 403 is prime, so no width divides it evenly.
	// a·b is above blockedThreshold as a whole but not per half, so a
	// range that picked its kernel by its own size would be caught.
	a := Randn(r, 1, 403, 60)
	b := Randn(r, 1, 60, 20)
	bt := Randn(r, 1, 90, 60)
	// Five output rows — fewer than the widest split — over a long k.
	tall := Randn(r, 1, 4000, 5)
	wide := Randn(r, 1, 4000, 27)
	// Sparse operands take the naive kernels' zero skip.
	sparse := Randn(r, 1, 403, 60)
	for i := range sparse.data {
		if i%3 == 0 {
			sparse.data[i] = 0
		}
	}
	g := ConvGeom{Channels: 3, Height: 32, Width: 32, KernelH: 3, KernelW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
	batch := Randn(r, 1, 11, 3, 32, 32) // 11 images: an odd split
	big := ConvGeom{Channels: 3, Height: 128, Width: 128, KernelH: 3, KernelW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
	single := Randn(r, 1, 1, 3, 128, 128)               // one image: nothing to split
	filters, bias := Randn(r, 1, 9, 27), Randn(r, 1, 9) // 9 channels: an odd split
	grad := Randn(r, 1, 11, 9, 32, 32)
	for i := range grad.data {
		if i%4 != 0 {
			grad.data[i] = 0
		}
	}
	// Each run pads afresh, so every width writes its own padded input.
	padded := func() *ConvWork {
		var ws ConvWork
		Conv2DInto(nil, &ws, batch, filters, bias, g)
		return &ws
	}
	parts := []*Tensor{Randn(r, 1, 300, 400), Randn(r, 1, 1, 400), Randn(r, 1, 500, 400)}
	stacked := Randn(r, 1, 801, 400)
	return []fannedCase{
		{"MatMulInto", func() *Tensor { return MatMulInto(nil, a, b) }},
		{"MatMulInto-sparse", func() *Tensor { return MatMulInto(nil, sparse, b) }},
		{"MatMulTransAInto", func() *Tensor { return MatMulTransAInto(nil, tall, wide) }},
		{"MatMulTransAInto-sparse", func() *Tensor { return MatMulTransAInto(nil, sparse, Randn(mathx.NewRNG(3), 1, 403, 200)) }},
		{"MatMulTransBInto", func() *Tensor { return MatMulTransBInto(nil, a, bt) }},
		{"Conv2DInto", func() *Tensor { return Conv2DInto(nil, &ConvWork{}, batch, filters, bias, g) }},
		{"Conv2DInto-single", func() *Tensor { return Conv2DInto(nil, &ConvWork{}, single, filters, bias, big) }},
		{"AddConv2DParamGrads", func() *Tensor {
			dw, db := New(9, 27), New(9)
			AddConv2DParamGrads(dw, db, grad, padded(), g)
			return FromSlice(append(dw.data, db.data...), 9*28)
		}},
		{"Conv2DInputGradInto", func() *Tensor { return Conv2DInputGradInto(nil, &ConvWork{}, grad, filters, g) }},
		{"ConcatRows", func() *Tensor { return ConcatRows(parts...) }},
		{"SplitRows", func() *Tensor { return SplitRows(stacked, 300, 1, 500)[2] }},
	}
}

// TestParallelKernelsMatchSerial pins the fan-out rule: a kernel splits
// its outputs, never a reduction, so its bits are the serial kernel's at
// every GOMAXPROCS — including splits into more ranges than there are
// rows, and batches of one image.
func TestParallelKernelsMatchSerial(t *testing.T) {
	for _, tc := range fannedCases() {
		t.Run(tc.name, func(t *testing.T) {
			var want *Tensor
			atWidth(1, func() { want = tc.run() })
			for _, procs := range []int{2, 3, 7} {
				var got *Tensor
				atWidth(procs, func() { got = tc.run() })
				if !sameBits(got, want) {
					t.Fatalf("GOMAXPROCS %d: result differs from the serial kernel's bits", procs)
				}
			}
		})
	}
}

// TestParallelForCoversRange: the ranges tile [0, n) exactly once, for
// n below, at and above the split width, and serially below the
// threshold.
func TestParallelForCoversRange(t *testing.T) {
	for _, procs := range []int{1, 2, 3, 7} {
		for _, n := range []int{1, 2, 5, 7, 64, 1001} {
			for _, work := range []int{0, parallelThreshold} {
				seen := make([]atomic.Int32, n)
				var calls atomic.Int32
				atWidth(procs, func() {
					ParallelFor(n, work, func(ctx any, lo, hi int) {
						calls.Add(1)
						if lo >= hi {
							t.Errorf("empty range [%d,%d)", lo, hi)
						}
						for i := lo; i < hi; i++ {
							ctx.([]atomic.Int32)[i].Add(1)
						}
					}, seen)
				})
				for i := range seen {
					if c := seen[i].Load(); c != 1 {
						t.Fatalf("GOMAXPROCS %d n %d work %d: index %d visited %d times", procs, n, work, i, c)
					}
				}
				if want := int32(min(procs, n)); work == 0 && calls.Load() != 1 || work > 0 && calls.Load() != want {
					t.Fatalf("GOMAXPROCS %d n %d work %d: %d ranges", procs, n, work, calls.Load())
				}
			}
		}
	}
}

// TestParallelForConcurrentCallers: eight goroutines fanning kernels out
// at once share the one worker set, finish, and still get the serial
// bits. Run it under -race.
func TestParallelForConcurrentCallers(t *testing.T) {
	cases := fannedCases()
	want := make([]*Tensor, len(cases))
	atWidth(1, func() {
		for i, tc := range cases {
			want[i] = tc.run()
		}
	})
	atWidth(max(runtime.GOMAXPROCS(0), 2), func() {
		var wg sync.WaitGroup
		for c := 0; c < 8; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range cases {
					k := (i + c) % len(cases)
					if got := cases[k].run(); !sameBits(got, want[k]) {
						t.Errorf("caller %d: %s differs from the serial bits", c, cases[k].name)
					}
				}
			}()
		}
		wg.Wait()
	})
}

// TestParallelForNested: a body must not call ParallelFor — nesting buys
// nothing, since the workers are busy with the outer call — but if one
// does, every range still runs once and the call returns.
func TestParallelForNested(t *testing.T) {
	const outer, inner = 6, 50
	var seen [outer * inner]atomic.Int32
	atWidth(3, func() {
		ParallelFor(outer, parallelThreshold, func(_ any, lo, hi int) {
			for o := lo; o < hi; o++ {
				ParallelFor(inner, parallelThreshold, func(_ any, lo, hi int) {
					for i := lo; i < hi; i++ {
						seen[o*inner+i].Add(1)
					}
				}, nil)
			}
		}, nil)
	})
	for i := range seen {
		if c := seen[i].Load(); c != 1 {
			t.Fatalf("index %d visited %d times", i, c)
		}
	}
}

// mallocsPerRun is testing.AllocsPerRun without its GOMAXPROCS 1, which
// would keep every kernel serial: it counts the allocations of f per
// call at GOMAXPROCS ≥ 2, after one warm call.
func mallocsPerRun(runs int, f func()) float64 {
	var n float64
	atWidth(max(runtime.GOMAXPROCS(0), 2), func() {
		f()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			f()
		}
		runtime.ReadMemStats(&after)
		n = float64(after.Mallocs-before.Mallocs) / float64(runs)
	})
	return n
}

// TestParallelKernelsDoNotAllocate: above the threshold a warm kernel
// fans out without allocating — no goroutine, closure or descriptor per
// call.
func TestParallelKernelsDoNotAllocate(t *testing.T) {
	r := mathx.NewRNG(22)
	a, bt := Randn(r, 1, 403, 60), Randn(r, 1, 90, 60)
	b := Randn(r, 1, 60, 90)
	x := Randn(r, 1, 11, 3, 32, 32)
	g := ConvGeom{Channels: 3, Height: 32, Width: 32, KernelH: 3, KernelW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
	w, bias := Randn(r, 1, 8, 27), Randn(r, 1, 8)
	dw, db := New(8, 27), New(8)
	var mm, ta, tb, out, img *Tensor
	var ws ConvWork
	if n := mallocsPerRun(50, func() {
		mm = MatMulInto(mm, a, b)
		ta = MatMulTransAInto(ta, a, a)
		tb = MatMulTransBInto(tb, a, bt)
		out = Conv2DInto(out, &ws, x, w, bias, g)
		AddConv2DParamGrads(dw, db, out, &ws, g)
		img = Conv2DInputGradInto(img, &ws, out, w, g)
	}); n >= 1 {
		t.Fatalf("warm fanned kernels allocated %v times per call", n)
	}
}

// TestMatMulPBadRankMatchesSerialPanic regresses a validation-order bug:
// a parallel matmul read shape[1] before the rank guard, so a rank-1 (or
// rank-3) operand large enough to fan out panicked with a raw
// index-out-of-range instead of the serial kernel's descriptive shape
// panic. Each kernel must raise the same panic at GOMAXPROCS 1 as on
// its fanned path.
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
		{"inner-mismatch", Randn(r, 1, 600, 500), Randn(r, 1, 400, 300)},
	}
	kernels := map[string]func(a, b *Tensor) *Tensor{
		"MatMulInto":       func(a, b *Tensor) *Tensor { return MatMulInto(nil, a, b) },
		"MatMulTransAInto": func(a, b *Tensor) *Tensor { return MatMulTransAInto(nil, a, b) },
		"MatMulTransBInto": func(a, b *Tensor) *Tensor { return MatMulTransBInto(nil, a, b) },
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for name, k := range kernels {
				var serial, fanned string
				atWidth(1, func() { serial = panicMessage(func() { k(tc.a, tc.b) }) })
				atWidth(4, func() { fanned = panicMessage(func() { k(tc.a, tc.b) }) })
				if serial == "" || !strings.HasPrefix(serial, "tensor: MatMul") {
					t.Fatalf("%s accepted or misreported malformed operands: %q", name, serial)
				}
				if fanned != serial {
					t.Errorf("%s fanned panic %q, want the serial %q", name, fanned, serial)
				}
			}
		})
	}
}
