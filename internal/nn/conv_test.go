package nn

import (
	"fmt"
	"runtime"
	"testing"

	"github.com/stsl/stsl/internal/mathx"
	"github.com/stsl/stsl/internal/tensor"
)

// TestConvParallelMatchesSerial pins ParallelFor's rule on the
// convolution: its kernels split outputs — images for the output and
// the input gradient, output channels for the filter gradient — and
// never a reduction, so Forward, Backward and the parameter-only
// backward give the serial bits at GOMAXPROCS 1, 2, 3 and 7, for batches
// larger and smaller than the number of ranges. The output gradient is
// three quarters zeros, as max-pool backward leaves it. At 16×16 its
// nonzero entries fill several lists per image; at 4×4 one list spans
// several images.
func TestConvParallelMatchesSerial(t *testing.T) {
	type result struct{ out, dx, dw, db, pdw, pdb *tensor.Tensor }
	run := func(n, in, out, side int) result {
		r := mathx.NewRNG(uint64(50 + n))
		conv, err := NewConv2D(Conv2DConfig{Name: "c", In: in, Out: out, KernelH: 3, KernelW: 3, SamePad: true}, r)
		if err != nil {
			t.Fatal(err)
		}
		x := tensor.Randn(r, 1, n, in, side, side)
		grad := tensor.New(n, out, side, side)
		for i := range grad.Data() {
			if r.Intn(4) == 0 {
				grad.Data()[i] = r.Norm()
			}
		}
		var res result
		res.out = conv.Forward(x, true).Clone()
		res.dx = conv.Backward(grad).Clone()
		res.dw, res.db = conv.weight.Grad.Clone(), conv.bias.Grad.Clone()
		conv.weight.ZeroGrad()
		conv.bias.ZeroGrad()
		conv.Forward(x, true)
		conv.backwardParams(grad)
		res.pdw, res.pdb = conv.weight.Grad.Clone(), conv.bias.Grad.Clone()
		return res
	}
	for _, g := range []struct{ in, out, side int }{{16, 12, 16}, {24, 32, 4}} {
		for _, n := range []int{5, 2, 1} {
			t.Run(fmt.Sprintf("%dx%d-batch%d", g.side, g.side, n), func(t *testing.T) {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
				want := run(n, g.in, g.out, g.side)
				if !sameBits(want.pdw, want.dw) || !sameBits(want.pdb, want.db) {
					t.Fatal("the parameter-only backward differs from Backward's parameter gradients")
				}
				for _, procs := range []int{2, 3, 7} {
					runtime.GOMAXPROCS(procs)
					got := run(n, g.in, g.out, g.side)
					for _, c := range []struct {
						name      string
						got, want *tensor.Tensor
					}{
						{"Forward", got.out, want.out}, {"Backward dx", got.dx, want.dx},
						{"Backward dW", got.dw, want.dw}, {"Backward db", got.db, want.db},
						{"backwardParams dW", got.pdw, want.pdw}, {"backwardParams db", got.pdb, want.pdb},
					} {
						if !sameBits(c.got, c.want) {
							t.Errorf("GOMAXPROCS %d: %s differs from the serial bits", procs, c.name)
						}
					}
				}
			})
		}
	}
}
