package core

import (
	"runtime"
	"testing"
	"time"

	"github.com/stsl/stsl/internal/data"
	"github.com/stsl/stsl/internal/mathx"
	"github.com/stsl/stsl/internal/queue"
	"github.com/stsl/stsl/internal/tensor"
	"github.com/stsl/stsl/internal/transport"
)

// pinnedDeployment builds a one-client deployment of the SmallScale
// network at the given cut over a normalised synthetic shard.
func pinnedDeployment(t *testing.T, cut int) *Deployment {
	t.Helper()
	model := pinnedModel()
	ds, err := (data.SynthCIFAR{Height: model.Height, Width: model.Width, Classes: model.Classes}).Generate(256, 41)
	if err != nil {
		t.Fatal(err)
	}
	ds.Normalize()
	dep, err := NewDeployment(Config{Model: model, Cut: cut, Clients: 1, Seed: 42, BatchSize: 16, LR: 0.05}, []*data.Dataset{ds})
	if err != nil {
		t.Fatal(err)
	}
	return dep
}

// TestActivationPayloadIsOwned: an activation message may sit in a queue,
// a pair carrier or a resend buffer after its end-system has moved on, so
// its payload must survive ApplyGradient and the next ProduceBatch.
func TestActivationPayloadIsOwned(t *testing.T) {
	dep := pinnedDeployment(t, 1)
	es, srv := dep.Clients[0], dep.Server
	msg, err := es.ProduceBatch(0)
	if err != nil {
		t.Fatal(err)
	}
	snapshot := msg.Payload.Clone()
	reply, err := srv.Process(queue.Item{Msg: msg}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := es.ApplyGradient(reply); err != nil {
		t.Fatal(err)
	}
	if _, err := es.ProduceBatch(0); err != nil {
		t.Fatal(err)
	}
	if !msg.Payload.Equal(snapshot, 0) {
		t.Fatal("the end-system's next pass overwrote an activation it had already sent")
	}
}

// TestReplyPayloadIsOwned: a gradient reply lives on in the reply cache
// and in flight after the server has served the next client, so serving
// client B must leave reply A's payload intact.
func TestReplyPayloadIsOwned(t *testing.T) {
	dep := pinnedDeployment(t, 1)
	es, srv := dep.Clients[0], dep.Server
	msgA, err := es.ProduceBatch(0)
	if err != nil {
		t.Fatal(err)
	}
	replyA, err := srv.Process(queue.Item{Msg: msgA}, 0)
	if err != nil {
		t.Fatal(err)
	}
	snapshot := replyA.Payload.Clone()
	msgB := &transport.Message{
		Type: transport.MsgActivation, ClientID: 1, Seq: 0,
		Payload: tensor.Randn(mathx.NewRNG(43), 1, msgA.Payload.Shape()...), Labels: msgA.Labels,
	}
	if _, err := srv.Process(queue.Item{Msg: msgB}, time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if !replyA.Payload.Equal(snapshot, 0) {
		t.Fatal("serving client B overwrote the gradient already sent to client A")
	}
}

// TestTrainStepAllocBudget bounds what one in-process training step —
// ProduceBatch → Enqueue → ProcessNext → ApplyGradient at SmallScale,
// cut 1 — allocates once the layers' workspaces exist. What remains is
// the batcher's batch (393 kB), the two boundary copies of 262 kB each
// and a few message and queue records: about 17 allocations. GOMAXPROCS
// is pinned to 2 so the conv kernels take tensor.ParallelFor's fan-out,
// which must add none.
func TestTrainStepAllocBudget(t *testing.T) {
	const (
		warm, measured = 3, 20
		maxKB          = 1000
		maxAllocs      = 25
	)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	dep := pinnedDeployment(t, 1)
	es, srv := dep.Clients[0], dep.Server
	step := func() {
		msg, err := es.ProduceBatch(0)
		if err != nil {
			t.Fatal(err)
		}
		if err := srv.Enqueue(msg, 0); err != nil {
			t.Fatal(err)
		}
		reply, ok, err := srv.ProcessNext(0)
		if err != nil || !ok {
			t.Fatalf("ProcessNext: ok=%v err=%v", ok, err)
		}
		if err := es.ApplyGradient(reply); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < warm; i++ {
		step()
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < measured; i++ {
		step()
	}
	runtime.ReadMemStats(&after)
	kB := float64(after.TotalAlloc-before.TotalAlloc) / 1e3 / measured
	allocs := float64(after.Mallocs-before.Mallocs) / measured
	t.Logf("%.0f kB in %.1f allocations per step", kB, allocs)
	if kB > maxKB || allocs > maxAllocs {
		t.Fatalf("a warm training step allocates %.0f kB in %.1f allocations; budget %d kB, %d allocations",
			kB, allocs, maxKB, maxAllocs)
	}
}
