package nn

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"github.com/stsl/stsl/internal/mathx"
	"github.com/stsl/stsl/internal/tensor"
)

// TestLayerShapeContract verifies, for every layer type, that OutShape's
// prediction matches the actual Forward output shape — the contract the
// split framework relies on when it wires client and server stacks.
func TestLayerShapeContract(t *testing.T) {
	r := mathx.NewRNG(1)
	conv, err := NewConv2D(Conv2DConfig{Name: "c", In: 3, Out: 8, KernelH: 3, KernelW: 3, SamePad: true}, r)
	if err != nil {
		t.Fatal(err)
	}
	convStride, err := NewConv2D(Conv2DConfig{Name: "cs", In: 3, Out: 4, KernelH: 2, KernelW: 2, StrideH: 2, StrideW: 2}, r)
	if err != nil {
		t.Fatal(err)
	}
	pool, err := NewMaxPool2D("p", 2, 2, 0, 0)
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name  string
		layer Layer
		in    []int // per-sample input shape
	}{
		{"conv-same", conv, []int{3, 16, 16}},
		{"conv-strided", convStride, []int{3, 16, 16}},
		{"pool", pool, []int{3, 16, 16}},
		{"relu", NewReLU("r"), []int{3, 8, 8}},
		{"flatten", NewFlatten("f"), []int{3, 4, 4}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want, err := tc.layer.OutShape(tc.in)
			if err != nil {
				t.Fatal(err)
			}
			batchShape := append([]int{2}, tc.in...)
			x := tensor.Randn(mathx.NewRNG(2), 1, batchShape...)
			got := tc.layer.Forward(x, false).Shape()
			if got[0] != 2 {
				t.Fatalf("batch dim lost: %v", got)
			}
			if len(got)-1 != len(want) {
				t.Fatalf("rank mismatch: forward %v vs OutShape %v", got, want)
			}
			for i, d := range want {
				if got[i+1] != d {
					t.Fatalf("dim %d: forward %v vs OutShape %v", i, got, want)
				}
			}
		})
	}
}

// TestLayerBackwardShapeContract verifies ∂L/∂input has the input's shape
// for every layer — required for gradients to flow across the cut.
func TestLayerBackwardShapeContract(t *testing.T) {
	r := mathx.NewRNG(3)
	conv, err := NewConv2D(Conv2DConfig{Name: "c", In: 2, Out: 4, KernelH: 3, KernelW: 3, SamePad: true}, r)
	if err != nil {
		t.Fatal(err)
	}
	pool, err := NewMaxPool2D("p", 2, 2, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	dense, err := NewDense("d", 8, 3, nil, r)
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name  string
		layer Layer
		in    []int // full batch shape
	}{
		{"conv", conv, []int{2, 2, 6, 6}},
		{"pool", pool, []int{2, 2, 6, 6}},
		{"dense", dense, []int{3, 8}},
		{"relu", NewReLU("r"), []int{2, 5}},
		{"flatten", NewFlatten("f"), []int{2, 2, 3, 3}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			x := tensor.Randn(mathx.NewRNG(4), 1, tc.in...)
			y := tc.layer.Forward(x, true)
			dx := tc.layer.Backward(y.Clone())
			if !dx.SameShape(x) {
				t.Fatalf("backward shape %v != input shape %v", dx.Shape(), x.Shape())
			}
		})
	}
}

// TestBackwardWithoutForwardPanics pins the misuse contract for all
// cache-dependent layers.
func TestBackwardWithoutForwardPanics(t *testing.T) {
	r := mathx.NewRNG(5)
	conv, _ := NewConv2D(Conv2DConfig{Name: "c", In: 1, Out: 1, KernelH: 1, KernelW: 1}, r)
	pool, _ := NewMaxPool2D("p", 2, 2, 0, 0)
	dense, _ := NewDense("d", 2, 2, nil, r)

	layers := []Layer{conv, pool, dense, NewReLU("r"), NewFlatten("f")}
	for _, l := range layers {
		l := l
		t.Run(l.Name(), func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: Backward without Forward did not panic", l.Name())
				}
			}()
			l.Backward(tensor.New(1, 1))
		})
	}
}

// TestEvalForwardDoesNotArmBackward verifies inference-mode forwards do
// not leave stale caches that a later Backward could silently consume.
func TestEvalForwardDoesNotArmBackward(t *testing.T) {
	r := mathx.NewRNG(6)
	dense, err := NewDense("d", 4, 2, nil, r)
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.Randn(r, 1, 2, 4)
	dense.Forward(x, false)
	defer func() {
		if recover() == nil {
			t.Fatal("Backward after eval Forward did not panic")
		}
	}()
	dense.Backward(tensor.New(2, 2))
}

// TestSequentialOfSequentials checks that Sequential composes as a Layer.
func TestSequentialOfSequentials(t *testing.T) {
	r := mathx.NewRNG(7)
	d1, _ := NewDense("d1", 4, 8, nil, r)
	d2, _ := NewDense("d2", 8, 3, nil, r)
	inner1, err := NewSequential("inner1", d1, NewReLU("r1"))
	if err != nil {
		t.Fatal(err)
	}
	inner2, err := NewSequential("inner2", d2)
	if err != nil {
		t.Fatal(err)
	}
	outer, err := NewSequential("outer", inner1, inner2)
	if err != nil {
		t.Fatal(err)
	}
	out, err := outer.OutShape([]int{4})
	if err != nil {
		t.Fatal(err)
	}
	if out[0] != 3 {
		t.Fatalf("OutShape = %v", out)
	}
	x := tensor.Randn(r, 1, 2, 4)
	y := outer.Forward(x, true)
	dx := outer.Backward(y)
	if !dx.SameShape(x) {
		t.Fatal("nested backward shape mismatch")
	}
	if got := len(outer.Params()); got != 4 {
		t.Fatalf("nested params = %d, want 4", got)
	}
}

// TestEmptySequentialIsIdentity matters because cut=0 gives end-systems
// an empty stack.
func TestEmptySequentialIsIdentity(t *testing.T) {
	seq, err := NewSequential("empty")
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.Randn(mathx.NewRNG(8), 1, 2, 3)
	if !seq.Forward(x, true).Equal(x, 0) {
		t.Fatal("empty forward not identity")
	}
	if !seq.Backward(x).Equal(x, 0) {
		t.Fatal("empty backward not identity")
	}
	if len(seq.Params()) != 0 {
		t.Fatal("empty sequential has params")
	}
	out, err := seq.OutShape([]int{2, 3})
	if err != nil || out[0] != 2 || out[1] != 3 {
		t.Fatalf("empty OutShape = %v, %v", out, err)
	}
}

// ownedLayer is one layer of the ownership contract under test: build
// constructs it deterministically, in is its per-sample input shape.
type ownedLayer struct {
	name  string
	build func() Layer
	in    []int
}

// ownedLayers lists every layer BuildPaperCNN can emit, plus a Sequential
// of all of them, at shapes below the parallel matmul threshold.
func ownedLayers() []ownedLayer {
	conv := func(name string, in, out int, seed uint64) *Conv2D {
		c, err := NewConv2D(Conv2DConfig{Name: name, In: in, Out: out, KernelH: 3, KernelW: 3, SamePad: true}, mathx.NewRNG(seed))
		if err != nil {
			panic(err)
		}
		return c
	}
	dense := func(name string, in, out int, seed uint64) *Dense {
		d, err := NewDense(name, in, out, nil, mathx.NewRNG(seed))
		if err != nil {
			panic(err)
		}
		return d
	}
	pool := func(name string) *MaxPool2D {
		p, err := NewMaxPool2D(name, 2, 2, 0, 0)
		if err != nil {
			panic(err)
		}
		return p
	}
	return []ownedLayer{
		{"conv", func() Layer { return conv("c", 3, 4, 1) }, []int{3, 8, 8}},
		{"relu", func() Layer { return NewReLU("r") }, []int{3, 8, 8}},
		{"pool", func() Layer { return pool("p") }, []int{3, 8, 8}},
		{"flatten", func() Layer { return NewFlatten("f") }, []int{3, 4, 4}},
		{"dense", func() Layer { return dense("d", 12, 5, 2) }, []int{12}},
		{"sequential", func() Layer {
			s, err := NewSequential("s",
				conv("c", 3, 4, 4), NewReLU("r1"), pool("p"), NewFlatten("f"),
				dense("d1", 64, 8, 5), NewReLU("r2"), dense("d2", 8, 3, 7))
			if err != nil {
				panic(err)
			}
			return s
		}, []int{3, 8, 8}},
	}
}

// batchOf returns a seeded random batch of n samples of per-sample shape in.
func batchOf(seed uint64, n int, in []int) *tensor.Tensor {
	return tensor.Randn(mathx.NewRNG(seed), 1, append([]int{n}, in...)...)
}

func sameBits(a, b *tensor.Tensor) bool {
	if !a.SameShape(b) {
		return false
	}
	for i, v := range a.Data() {
		if math.Float64bits(v) != math.Float64bits(b.Data()[i]) {
			return false
		}
	}
	return true
}

// TestLayersLeaveInputsIntact: a layer never writes into a tensor it was
// given. privacy.RunFig4 keeps the conv output while ReLU and pool run on
// it, and Dense caches its input for Backward.
func TestLayersLeaveInputsIntact(t *testing.T) {
	for _, tc := range ownedLayers() {
		t.Run(tc.name, func(t *testing.T) {
			l := tc.build()
			x := batchOf(10, 4, tc.in)
			x0 := x.Clone()
			y := l.Forward(x, true)
			if !sameBits(x, x0) {
				t.Fatal("Forward wrote into its input")
			}
			g := batchOf(11, 4, y.Shape()[1:])
			g0 := g.Clone()
			l.Backward(g)
			if !sameBits(g, g0) {
				t.Fatal("Backward wrote into its gradient")
			}
			if !sameBits(x, x0) {
				t.Fatal("Backward wrote into the Forward input")
			}
		})
	}
}

// TestBackwardResultSurvivesForward: a Backward output is valid until the
// layer's next Backward, so a Forward in between — CheckLayerGradients
// runs hundreds — must leave it alone.
func TestBackwardResultSurvivesForward(t *testing.T) {
	for _, tc := range ownedLayers() {
		t.Run(tc.name, func(t *testing.T) {
			l := tc.build()
			y := l.Forward(batchOf(12, 4, tc.in), true)
			dx := l.Backward(batchOf(13, 4, y.Shape()[1:]))
			dx0 := dx.Clone()
			l.Forward(batchOf(14, 4, tc.in), true)
			l.Forward(batchOf(15, 4, tc.in), false)
			if !sameBits(dx, dx0) {
				t.Fatal("a later Forward overwrote the Backward result")
			}
		})
	}
}

// syncState copies every bit of training state from src into dst, a
// freshly built layer of the same construction: its parameter values,
// the only state a layer keeps from one step to the next.
func syncState(dst, src Layer) {
	for i, p := range src.Params() {
		dst.Params()[i].Value.CopyFrom(p.Value)
	}
}

// TestBatchShapeChangesMatchFreshTwin: workspaces are resized when the
// batch shape changes and reused while it holds, and neither shows in the
// arithmetic. One layer trains through batches of 16, 7 and 16 with an
// inference Forward of one sample in between (privacy.ReconstructionAttack
// probes that way); before every call a twin is freshly built with the
// layer's state copied in, and both must produce the same bits — outputs,
// input gradients and parameter gradients.
func TestBatchShapeChangesMatchFreshTwin(t *testing.T) {
	type step struct {
		n     int
		train bool
	}
	steps := []step{{16, true}, {7, true}, {1, false}, {16, true}, {16, true}}
	for _, tc := range ownedLayers() {
		t.Run(tc.name, func(t *testing.T) {
			l := tc.build()
			for i, st := range steps {
				twin := tc.build()
				syncState(twin, l)
				x := batchOf(uint64(20+i), st.n, tc.in)
				y, ty := l.Forward(x, st.train), twin.Forward(x, st.train)
				if !sameBits(y, ty) {
					t.Fatalf("step %d (batch %d, train %v): Forward differs from a fresh twin", i, st.n, st.train)
				}
				if !st.train {
					continue
				}
				for _, p := range append(l.Params(), twin.Params()...) {
					p.ZeroGrad()
				}
				g := batchOf(uint64(40+i), st.n, y.Shape()[1:])
				if !sameBits(l.Backward(g), twin.Backward(g)) {
					t.Fatalf("step %d (batch %d): Backward differs from a fresh twin", i, st.n)
				}
				for j, p := range l.Params() {
					if !sameBits(p.Grad, twin.Params()[j].Grad) {
						t.Fatalf("step %d (batch %d): gradient of %s differs from a fresh twin", i, st.n, p.Name)
					}
				}
			}
		})
	}
}

// mallocsPerRun counts the allocations of f per call, as
// testing.AllocsPerRun does, but at GOMAXPROCS ≥ 2: AllocsPerRun's
// GOMAXPROCS 1 would keep every kernel off tensor.ParallelFor's fan-out.
func mallocsPerRun(runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(runtime.GOMAXPROCS(0), 2)))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64((after.Mallocs - before.Mallocs) / uint64(runs))
}

// TestLayerSteadyStateAllocs: once its workspaces exist, a training
// Forward+Backward of every layer BuildPaperCNN emits — and the loss's
// destination form — allocates nothing. The batch-8 cases stay below
// the fan-out threshold; the batch-32 32×32 block, in BuildPaperCNN's
// order, crosses it in every conv kernel, the pool (2^16 windows) and
// the ReLU (2^16 elements).
func TestLayerSteadyStateAllocs(t *testing.T) {
	cases := ownedLayers()
	block := func() Layer {
		c, err := NewConv2D(Conv2DConfig{Name: "c", In: 3, Out: 8, KernelH: 3, KernelW: 3, SamePad: true}, mathx.NewRNG(8))
		if err != nil {
			panic(err)
		}
		p, err := NewMaxPool2D("p", 2, 2, 0, 0)
		if err != nil {
			panic(err)
		}
		s, err := NewSequential("block", c, p, NewReLU("r"))
		if err != nil {
			panic(err)
		}
		return s
	}
	cases = append(cases, ownedLayer{"fanned-block", block, []int{3, 32, 32}})
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			batch := 8
			if tc.name == "fanned-block" {
				batch = 32
			}
			l := tc.build()
			x := batchOf(50, batch, tc.in)
			g := batchOf(51, batch, l.Forward(x, true).Shape()[1:])
			l.Backward(g)
			if n := mallocsPerRun(20, func() {
				l.Forward(x, true)
				l.Backward(g)
			}); n != 0 {
				t.Fatalf("warm Forward+Backward allocated %v times", n)
			}
		})
	}
	t.Run("loss", func(t *testing.T) {
		logits := batchOf(52, 8, []int{10})
		labels := []int{0, 1, 2, 3, 4, 5, 6, 9}
		_, grad, err := SoftmaxCrossEntropyInto(nil, logits, labels)
		if err != nil {
			t.Fatal(err)
		}
		if n := testing.AllocsPerRun(20, func() {
			_, grad, _ = SoftmaxCrossEntropyInto(grad, logits, labels)
		}); n != 0 {
			t.Fatalf("warm SoftmaxCrossEntropyInto allocated %v times", n)
		}
	})
}

// TestBackwardParamsTwin: for the paper CNN's end-system stack at every
// cut, BackwardParams accumulates the parameter gradients of a twin
// that runs Backward, bit for bit, and the first convolution never
// allocates the input gradient nobody reads.
func TestBackwardParamsTwin(t *testing.T) {
	cfg := PaperCNNConfig{Filters: []int{8, 12, 16, 24, 32}, Hidden: 64}
	for cut := 1; cut <= len(cfg.Filters); cut++ {
		t.Run(fmt.Sprintf("cut%d", cut), func(t *testing.T) {
			stack := func() *Sequential {
				cnn, err := BuildPaperCNN(cfg, mathx.NewRNG(60))
				if err != nil {
					t.Fatal(err)
				}
				idx, err := cnn.CutIndex(cut)
				if err != nil {
					t.Fatal(err)
				}
				s, err := NewSequential("client", cnn.Net.Layers()[:idx]...)
				if err != nil {
					t.Fatal(err)
				}
				return s
			}
			l, twin := stack(), stack()
			for step := 0; step < 2; step++ {
				x := batchOf(uint64(61+step), 16, []int{3, 32, 32})
				y := l.Forward(x, true)
				if !sameBits(y, twin.Forward(x, true)) {
					t.Fatalf("step %d: Forward differs from the twin", step)
				}
				g := batchOf(uint64(71+step), 16, y.Shape()[1:])
				l.ZeroGrad()
				twin.ZeroGrad()
				l.BackwardParams(g)
				twin.Backward(g)
				for i, p := range l.Params() {
					if !sameBits(p.Grad, twin.Params()[i].Grad) {
						t.Fatalf("step %d: gradient of %s differs from the twin's", step, p.Name)
					}
				}
			}
			if conv := l.Layers()[0].(*Conv2D); conv.dx != nil || conv.armed {
				t.Fatalf("conv1 allocated its input gradient (%v) or stayed armed (%v)", conv.dx != nil, conv.armed)
			}
		})
	}
}

// TestDropScratchKeepsBits: a stack that drops its convolution scratch
// between steps, and between a training Forward and its Backward (where
// the padded input must stay), produces the bits of a twin that never
// does. Every drop frees the lowering scratch; an idle conv frees its
// padded input too. The stack is nested one level so the recursion is
// exercised.
func TestDropScratchKeepsBits(t *testing.T) {
	var seq ownedLayer
	for _, tc := range ownedLayers() {
		if tc.name == "sequential" {
			seq = tc
		}
	}
	build := func() *Sequential {
		s, err := NewSequential("outer", seq.build())
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	l, twin := build(), build()
	conv := l.Layers()[0].(*Sequential).Layers()[0].(*Conv2D)
	for i := 0; i < 4; i++ {
		x := batchOf(uint64(90+i), 8, seq.in)
		y, ty := l.Forward(x, true), twin.Forward(x, true)
		if !sameBits(y, ty) {
			t.Fatalf("step %d: Forward differs from the twin", i)
		}
		l.DropScratch()
		if conv.work.Padded == nil || conv.work.Scratch != nil {
			t.Fatalf("step %d: armed conv kept padded input %v and scratch %v, want true and false",
				i, conv.work.Padded != nil, conv.work.Scratch != nil)
		}
		for _, p := range append(l.Params(), twin.Params()...) {
			p.ZeroGrad()
		}
		g := batchOf(uint64(95+i), 8, y.Shape()[1:])
		if !sameBits(l.Backward(g), twin.Backward(g)) {
			t.Fatalf("step %d: Backward differs from the twin", i)
		}
		for j, p := range l.Params() {
			if !sameBits(p.Grad, twin.Params()[j].Grad) {
				t.Fatalf("step %d: gradient of %s differs from the twin", i, p.Name)
			}
		}
		if conv.work.Scratch == nil {
			t.Fatalf("step %d: Backward left no lowering scratch to drop", i)
		}
		l.DropScratch()
		if conv.work.Padded != nil || conv.work.Scratch != nil {
			t.Fatalf("step %d: idle conv kept padded input %v or scratch %v",
				i, conv.work.Padded != nil, conv.work.Scratch != nil)
		}
	}
}
