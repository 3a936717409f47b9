package cluster

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"testing"
	"time"

	"github.com/stsl/stsl/internal/core"
	"github.com/stsl/stsl/internal/data"
	"github.com/stsl/stsl/internal/mathx"
	"github.com/stsl/stsl/internal/simnet"
	"github.com/stsl/stsl/internal/tensor"
	"github.com/stsl/stsl/internal/transport"
)

// TestWorkerPoolAllPolicies drives a multi-worker pool through every
// scheduling policy: the full batch budget must be served exactly once
// across the replicas (the session layer still guarantees lock-step per
// client), at least one FedAvg sync barrier must complete, and training
// must produce a real loss. Run with -race: N workers drain one shared
// queue concurrently.
func TestWorkerPoolAllPolicies(t *testing.T) {
	for _, policy := range []string{"fifo", "staleness", "fair-rr", "sync-rounds"} {
		policy := policy
		t.Run(policy, func(t *testing.T) {
			const (
				clients = 4
				steps   = 6
			)
			dep := buildDeployment(t, clients, policy)
			res, err := Run(context.Background(), dep, RunnerConfig{
				StepsPerClient: steps,
				GradTimeout:    20 * time.Second,
				Cluster:        Config{Workers: 2, SyncEvery: 4},
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.ServerSteps != clients*steps {
				t.Fatalf("pool processed %d batches, want %d", res.ServerSteps, clients*steps)
			}
			for i, s := range res.StepsPerClient {
				if s != steps {
					t.Errorf("client %d contributed %d steps, want %d", i, s, steps)
				}
			}
			if res.Snapshot.Workers != 2 {
				t.Errorf("snapshot workers = %d, want 2", res.Snapshot.Workers)
			}
			if res.Snapshot.Syncs < 1 {
				t.Errorf("pool completed %d sync barriers, want >= 1 (SyncEvery=4, %d steps)",
					res.Snapshot.Syncs, clients*steps)
			}
			if res.FinalLoss <= 0 {
				t.Errorf("degenerate pool loss %.4f", res.FinalLoss)
			}
		})
	}
}

// TestPoolReplicasConvergeAfterShutdown verifies the supervisor's final
// fold: after Run returns, every replica — and therefore Core(), which
// evaluation reads — carries identical weights, whatever mid-run
// divergence the barrier cadence allowed.
func TestPoolReplicasConvergeAfterShutdown(t *testing.T) {
	dep := buildDeployment(t, 3, "fifo")
	srv := startServer(t, dep, Config{Workers: 3, SyncEvery: 4,
		NewReplica: dep.NewServerReplica})

	done := make(chan error, len(dep.Clients))
	for i := range dep.Clients {
		i := i
		client, server := transport.NewPair(1)
		srv.Attach(server)
		go func() {
			_, err := RunClient(context.Background(), dep.Clients[i], client, ClientConfig{
				Steps: 8, GradTimeout: 20 * time.Second,
			})
			client.Close()
			done <- err
		}()
	}
	for range dep.Clients {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.AwaitClients(ctx, len(dep.Clients)); err != nil {
		t.Fatal(err)
	}
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}

	reps := srv.Replicas()
	if len(reps) != 3 {
		t.Fatalf("pool holds %d replicas, want 3", len(reps))
	}
	var primary bytes.Buffer
	if err := reps[0].Stack.SaveWeights(&primary); err != nil {
		t.Fatal(err)
	}
	for i, rep := range reps[1:] {
		var b bytes.Buffer
		if err := rep.Stack.SaveWeights(&b); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(primary.Bytes(), b.Bytes()) {
			t.Errorf("replica %d diverged from primary after shutdown fold", i+1)
		}
	}
	if srv.Core() != reps[0] {
		t.Error("Core() is not the primary replica")
	}
}

// TestLiveMatchesSimulationMultiWorker is the pool's learning-parity
// gate: a live run with N data-parallel replicas syncing by FedAvg must
// land within 10% of the single-model virtual-time simulation's final
// loss on the identical deployment and seed. The tolerance is wider
// than the single-worker 5% bound because replica staleness between
// barriers is a real (bounded) algorithmic perturbation, not a bug —
// but a blow-up beyond 10% would mean the averaging is wrong.
func TestLiveMatchesSimulationMultiWorker(t *testing.T) {
	const (
		clients = 4
		steps   = 30
		seed    = 7
	)
	build := func() *core.Deployment {
		ds, err := (data.SynthCIFAR{Height: 8, Width: 8, Classes: 4}).Generate(32*clients, 41)
		if err != nil {
			t.Fatal(err)
		}
		shards, err := data.PartitionIID(ds, clients, mathx.NewRNG(4))
		if err != nil {
			t.Fatal(err)
		}
		dep, err := core.NewDeployment(core.Config{
			Model: smallModel(), Cut: 1, Clients: clients, Seed: seed,
			BatchSize: 8, LR: 0.05, QueuePolicy: "fifo",
		}, shards)
		if err != nil {
			t.Fatal(err)
		}
		return dep
	}

	// Single-model virtual-time reference, shared by both worker counts.
	simDep := build()
	paths := make([]*simnet.Path, clients)
	for i := range paths {
		p, err := simnet.NewSymmetricPath(simnet.Constant{D: 5 * time.Millisecond}, 0,
			mathx.NewRNG(uint64(1000+i)))
		if err != nil {
			t.Fatal(err)
		}
		paths[i] = p
	}
	sim, err := core.NewSimulation(simDep, core.SimConfig{
		Paths: paths, MaxStepsPerClient: steps,
		ServerProcTime: 2 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	simRes, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}

	for _, workers := range []int{2, 4} {
		workers := workers
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			liveDep := build()
			// SyncEvery 4 bounds each replica's staleness to about one
			// step per replica between barriers at workers=4 — the
			// setting an operator who cares about parity over raw
			// throughput would pick.
			liveRes, err := Run(context.Background(), liveDep, RunnerConfig{
				StepsPerClient: steps, Transport: TransportPipe, GradTimeout: 30 * time.Second,
				Cluster: Config{Workers: workers, SyncEvery: 4},
			})
			if err != nil {
				t.Fatal(err)
			}
			if liveRes.ServerSteps != simRes.ServerSteps {
				t.Fatalf("live processed %d batches, sim %d", liveRes.ServerSteps, simRes.ServerSteps)
			}
			if simRes.FinalLoss <= 0 || liveRes.FinalLoss <= 0 {
				t.Fatalf("degenerate losses: sim %.4f live %.4f", simRes.FinalLoss, liveRes.FinalLoss)
			}
			relGap := math.Abs(liveRes.FinalLoss-simRes.FinalLoss) / simRes.FinalLoss
			t.Logf("final loss: sim %.4f live %.4f (gap %.2f%%) syncs=%d div=%.3g",
				simRes.FinalLoss, liveRes.FinalLoss, relGap*100,
				liveRes.Snapshot.Syncs, liveRes.Snapshot.ReplicaDivergence)
			if relGap > 0.10 {
				t.Fatalf("pooled final loss %.4f deviates %.1f%% from simulation %.4f (tolerance 10%%)",
					liveRes.FinalLoss, relGap*100, simRes.FinalLoss)
			}
		})
	}
}

// TestPoolCheckpointAcrossWorkerCounts regresses the versioned
// checkpoint contract in both directions: an N-replica pool checkpoint
// restores into a single-model server as the replicas' FedAvg average,
// and a legacy single-model checkpoint restores into an M-worker pool
// with the weights fanned out to every replica. Neither direction drops
// a replica's contribution or wedges on the other format.
func TestPoolCheckpointAcrossWorkerCounts(t *testing.T) {
	path := t.TempDir() + "/pool.ckpt"

	// Train a 3-worker pool; Run's shutdown writes the final pool
	// checkpoint (true replica states) and then folds the replicas into
	// the primary — so the on-disk average must equal the folded primary.
	dep := buildDeployment(t, 2, "fifo")
	res, err := Run(context.Background(), dep, RunnerConfig{
		StepsPerClient: 6,
		GradTimeout:    20 * time.Second,
		Cluster: Config{
			Workers: 3, SyncEvery: 4,
			Checkpoint: FileCheckpointer(path), CheckpointEvery: 4,
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	// Pool checkpoint -> single-model server (N=3 into M=1).
	dep1 := buildDeployment(t, 2, "fifo")
	steps, restored, err := RestoreFromFile(path, dep1.Server)
	if err != nil || !restored {
		t.Fatalf("pool restore: restored=%v err=%v", restored, err)
	}
	if steps != res.ServerSteps {
		t.Fatalf("restored %d steps, want the pool total %d", steps, res.ServerSteps)
	}
	var folded, loaded bytes.Buffer
	if err := dep.Server.Stack.SaveWeights(&folded); err != nil {
		t.Fatal(err)
	}
	if err := dep1.Server.Stack.SaveWeights(&loaded); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(folded.Bytes(), loaded.Bytes()) {
		t.Error("restored average differs from the pool's folded primary")
	}

	// Legacy single-model checkpoint -> 2-worker pool (N=1 into M=2):
	// NewServer fans the restored weights out to every replica.
	legacy := t.TempDir() + "/legacy.ckpt"
	if err := FileCheckpointer(legacy)([]*core.Server{dep1.Server}); err != nil {
		t.Fatal(err)
	}
	dep2 := buildDeployment(t, 2, "fifo")
	if _, restored, err := RestoreFromFile(legacy, dep2.Server); err != nil || !restored {
		t.Fatalf("legacy restore: restored=%v err=%v", restored, err)
	}
	srv2, err := NewServer(dep2.Server, Config{
		Workers: 2, NewReplica: dep2.NewServerReplica,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, rep := range srv2.Replicas() {
		var b bytes.Buffer
		if err := rep.Stack.SaveWeights(&b); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(loaded.Bytes(), b.Bytes()) {
			t.Errorf("replica %d does not carry the restored weights after fan-out", i)
		}
	}

	// The resumed pool must train on: a fresh 2-worker run from the
	// restored deployment completes its whole budget.
	res2, err := Run(context.Background(), dep2, RunnerConfig{
		StepsPerClient: 4,
		GradTimeout:    20 * time.Second,
		Cluster:        Config{Workers: 2, SyncEvery: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res2.ServerSteps != 8 {
		t.Fatalf("resumed pool processed %d batches, want 8", res2.ServerSteps)
	}
}

// TestPoolEvictionDoesNotOrphan joins a poisoned client (activations of
// the wrong shape for the server's cut) alongside healthy clients on a
// 2-worker pool. The eviction happens on whichever replica drew the
// poisoned item; the healthy clients' in-flight items — possibly popped
// by the *other* replica at that moment — must all be served: eviction
// is session-scoped, never pool-scoped. Run with -race.
func TestPoolEvictionDoesNotOrphan(t *testing.T) {
	const (
		healthy = 3
		steps   = 6
	)
	dep := buildDeployment(t, healthy+1, "fifo")
	srv := startServer(t, dep, Config{
		Workers: 2, SyncEvery: 4, NewReplica: dep.NewServerReplica,
	})

	// The poisoned client speaks the protocol but ships a payload with
	// the wrong trailing shape for the server's cut point.
	poisoned := rawJoin(t, srv, healthy)
	if err := poisoned.Send(&transport.Message{
		Type: transport.MsgActivation, ClientID: healthy, Seq: 0,
		Payload: tensor.New(8, 3), Labels: make([]int, 8),
	}); err != nil {
		t.Fatal(err)
	}

	done := make(chan error, healthy)
	for i := 0; i < healthy; i++ {
		i := i
		client, server := transport.NewPair(1)
		srv.Attach(server)
		go func() {
			_, err := RunClient(context.Background(), dep.Clients[i], client, ClientConfig{
				Steps: steps, GradTimeout: 20 * time.Second,
			})
			client.Close()
			done <- err
		}()
	}
	for i := 0; i < healthy; i++ {
		if err := <-done; err != nil {
			t.Fatalf("healthy client failed alongside poisoned poolmate: %v", err)
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := srv.AwaitClients(ctx, healthy+1)
	if err == nil {
		t.Fatal("expected the poisoned client's processing error from AwaitClients")
	}
	for _, c := range srv.Snapshot().Clients {
		if c.ID < healthy {
			if c.Served != steps {
				t.Errorf("healthy client %d served %d, want %d", c.ID, c.Served, steps)
			}
			if c.Err != "" {
				t.Errorf("healthy client %d recorded error: %s", c.ID, c.Err)
			}
		} else if c.Err == "" {
			t.Error("poisoned client not recorded as evicted")
		}
	}
	poisoned.Close()
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
}
