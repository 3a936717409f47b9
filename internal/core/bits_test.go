package core

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"testing"
	"time"

	"github.com/stsl/stsl/internal/data"
	"github.com/stsl/stsl/internal/mathx"
	"github.com/stsl/stsl/internal/nn"
	"github.com/stsl/stsl/internal/queue"
	"github.com/stsl/stsl/internal/transport"
)

// pinnedModel is expt.SmallScale's network: the paper's five blocks at
// reduced width, over 32×32×3 input and 10 classes. (core cannot import
// expt, which imports core.)
func pinnedModel() nn.PaperCNNConfig {
	return nn.PaperCNNConfig{
		InChannels: 3, Height: 32, Width: 32,
		Filters: []int{8, 12, 16, 24, 32}, Hidden: 64, Classes: 10,
	}
}

// pinnedRun trains a fixed-seed two-client deployment in virtual time —
// five batches of 16 per client, so ten server steps fill the loss
// window — and returns the final-loss bits together with an FNV-64a hash
// over the float64 bits of every client and server parameter. The
// sync-rounds policy holds each round until both clients have sent, so a
// BatchCoalesce of 2 really does stack both activations into one pass.
func pinnedRun(t *testing.T, cut, coalesce int) (loss, params uint64) {
	t.Helper()
	model := pinnedModel()
	ds, err := (data.SynthCIFAR{Height: model.Height, Width: model.Width, Classes: model.Classes}).Generate(160, 31)
	if err != nil {
		t.Fatal(err)
	}
	ds.Normalize()
	shards, err := data.PartitionIID(ds, 2, mathx.NewRNG(32))
	if err != nil {
		t.Fatal(err)
	}
	dep, err := NewDeployment(Config{
		Model: model, Cut: cut, Clients: 2, Seed: 33,
		BatchSize: 16, LR: 0.05, QueuePolicy: "sync-rounds", BatchCoalesce: coalesce,
	}, shards)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := NewSimulation(dep, SimConfig{
		Paths: constPaths(2, time.Millisecond), MaxStepsPerClient: 5,
		ServerProcTime: 2 * time.Millisecond, ClientProcTime: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.ServerSteps != 10 {
		t.Fatalf("server ran %d steps, want 10", res.ServerSteps)
	}
	var ps []*nn.Param
	for _, c := range dep.Clients {
		ps = append(ps, c.Stack.Params()...)
	}
	return math.Float64bits(res.FinalLoss), paramHash(append(ps, dep.Server.Stack.Params()...))
}

// paramHash is an FNV-64a hash over the float64 bits of every value of
// ps, in order.
func paramHash(ps []*nn.Param) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, p := range ps {
		for _, v := range p.Value.Data() {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
			h.Write(buf[:])
		}
	}
	return h.Sum64()
}

// TestTrainingBitsPinned pins the arithmetic of a training step to
// constants, not to a second run of the same binary: a change to how the
// kernels store their results must leave every bit of the loss and of
// every parameter where it was. A change that alters the bits on purpose
// (a reordered sum, a fused kernel) updates the constants and says so.
func TestTrainingBitsPinned(t *testing.T) {
	cases := []struct {
		cut, coalesce  int
		loss, paramSum uint64
	}{
		{1, 1, 0x4003b4f813a6fdeb, 0xd24136a41a828a5f},
		{1, 2, 0x400388f61d5833d0, 0xd1b03d5e81b2c08b},
		{4, 1, 0x40081f70b1557583, 0xaf8de44a566586d1},
		{4, 2, 0x4007a921ed4a3e90, 0xbe22db9a0968beec},
	}
	for _, tc := range cases {
		t.Run(fmt.Sprintf("cut%d-b%d", tc.cut, tc.coalesce), func(t *testing.T) {
			loss, params := pinnedRun(t, tc.cut, tc.coalesce)
			if loss != tc.loss || params != tc.paramSum {
				t.Fatalf("final loss %v (%#016x), parameter hash %#016x; pinned %#016x, %#016x",
					math.Float64frombits(loss), loss, params, tc.loss, tc.paramSum)
			}
		})
	}
}

// TestApplyGradientTwin: an end-system's ApplyGradient, which skips the
// input gradient of its first layer, leaves every private parameter
// bit-identical to a twin that back-propagates the whole stack — at
// every cut of the SmallScale network.
func TestApplyGradientTwin(t *testing.T) {
	for cut := 1; cut <= len(pinnedModel().Filters); cut++ {
		t.Run(fmt.Sprintf("cut%d", cut), func(t *testing.T) {
			dep, twin := pinnedDeployment(t, cut), pinnedDeployment(t, cut)
			es, tes := dep.Clients[0], twin.Clients[0]
			for step := 0; step < 3; step++ {
				reply := serveOne(t, dep)
				if err := es.ApplyGradient(reply); err != nil {
					t.Fatal(err)
				}
				treply := serveOne(t, twin)
				tes.Stack.ZeroGrad()
				tes.Stack.Backward(treply.Payload)
				tes.Optim.Step(tes.Stack.Params())
				tes.outstanding = -1
				for i, p := range es.Stack.Params() {
					q := tes.Stack.Params()[i]
					for j, v := range p.Value.Data() {
						if math.Float64bits(v) != math.Float64bits(q.Value.Data()[j]) {
							t.Fatalf("step %d: %s[%d] = %v, the full-backward twin has %v", step, p.Name, j, v, q.Value.Data()[j])
						}
					}
				}
			}
		})
	}
}

// serveOne runs one batch of dep's only end-system through its server
// and returns the gradient reply.
func serveOne(t *testing.T, dep *Deployment) *transport.Message {
	t.Helper()
	msg, err := dep.Clients[0].ProduceBatch(0)
	if err != nil {
		t.Fatal(err)
	}
	reply, err := dep.Server.Process(queue.Item{Msg: msg}, 0)
	if err != nil {
		t.Fatal(err)
	}
	return reply
}
