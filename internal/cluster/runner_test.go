package cluster

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sync"
	"testing"
	"time"

	"github.com/stsl/stsl/internal/core"
	"github.com/stsl/stsl/internal/data"
	"github.com/stsl/stsl/internal/mathx"
	"github.com/stsl/stsl/internal/simnet"
	"github.com/stsl/stsl/internal/tensor"
	"github.com/stsl/stsl/internal/transport"
)

// TestRunnerTransports runs a small live cluster over every carrier —
// in-memory pairs, net.Pipe under the wire framing, and real loopback
// TCP — and checks the full batch budget is trained on each.
func TestRunnerTransports(t *testing.T) {
	for _, tc := range []struct {
		name string
		tr   Transport
	}{
		{"pair", TransportPair},
		{"pipe", TransportPipe},
		{"tcp", TransportTCP},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			dep := buildDeployment(t, 2, "fifo")
			const steps = 4
			res, err := Run(context.Background(), dep, RunnerConfig{
				StepsPerClient: steps, Transport: tc.tr, GradTimeout: 10 * time.Second,
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.ServerSteps != 2*steps {
				t.Fatalf("server processed %d batches, want %d", res.ServerSteps, 2*steps)
			}
			for i, s := range res.StepsPerClient {
				if s != steps {
					t.Errorf("client %d contributed %d steps, want %d", i, s, steps)
				}
			}
		})
	}
}

// TestRunnerAllPolicies exercises each scheduling policy end to end on
// the live runtime, including the gated sync-rounds discipline.
func TestRunnerAllPolicies(t *testing.T) {
	for _, policy := range []string{"fifo", "staleness", "fair-rr", "sync-rounds"} {
		policy := policy
		t.Run(policy, func(t *testing.T) {
			dep := buildDeployment(t, 3, policy)
			const steps = 4
			res, err := Run(context.Background(), dep, RunnerConfig{
				StepsPerClient: steps, GradTimeout: 10 * time.Second,
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.ServerSteps != 3*steps {
				t.Fatalf("server processed %d batches, want %d", res.ServerSteps, 3*steps)
			}
		})
	}
}

// TestGatedPolicyOverCap regresses a hang: sync-rounds refuses to pop
// until every active client has queued an item, so a cap below the
// client count would park the excess sessions forever. NewServer lifts
// the cap for gated policies; the run must complete.
func TestGatedPolicyOverCap(t *testing.T) {
	t.Run("park", func(t *testing.T) {
		dep := buildDeployment(t, 3, "sync-rounds")
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		res, err := Run(ctx, dep, RunnerConfig{
			StepsPerClient: 3,
			Cluster:        Config{QueueCap: 1},
			GradTimeout:    10 * time.Second,
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.ServerSteps != 9 {
			t.Fatalf("server processed %d batches, want 9", res.ServerSteps)
		}
	})
}

// TestLiveMatchesSimulation is the subsystem's ground truth: a live
// concurrent run with 4 clients must reach the same final loss (±5%) as
// the virtual-time simulation of the identical deployment and seed. The
// two runtimes share all model code; they differ only in whether arrival
// skew comes from an event heap or from real goroutine concurrency, so a
// larger gap would mean the cluster runtime corrupts training. It runs
// both unbatched and with micro-batch coalescing — the coalesced pass
// must change throughput, not learning — and repeats the comparison in
// float32 mode, where the live run additionally rounds every payload
// through float32 wire frames while the in-process simulation does
// not, so the parity tolerance widens to ±10%.
//
// The live clients run in lockstep rounds (lockstep), as the
// simulation's equal paths keep them. Left free, one client descheduled
// for a while falls a dozen batches behind the others, and the final
// loss — a window over the last 10 batches served — then averages that
// one client's shard instead of the fleet's.
func TestLiveMatchesSimulation(t *testing.T) {
	for _, tc := range []struct {
		coalesce int
		dtype    string
		tol      float64
	}{
		{coalesce: 1, dtype: "", tol: 0.05},
		{coalesce: 4, dtype: "", tol: 0.05},
		{coalesce: 1, dtype: "float32", tol: 0.10},
		{coalesce: 4, dtype: "float32", tol: 0.10},
	} {
		tc := tc
		coalesce := tc.coalesce
		name := fmt.Sprintf("coalesce=%d", coalesce)
		if tc.dtype != "" {
			name += "/" + tc.dtype
		}
		t.Run(name, func(t *testing.T) {
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
					BatchCoalesce: coalesce, DType: tc.dtype,
				}, shards)
				if err != nil {
					t.Fatal(err)
				}
				return dep
			}

			// Virtual-time reference. A non-zero server processing time
			// lets arrivals accumulate so coalescing actually engages.
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

			// Live concurrent run of the identical deployment.
			liveDep := build()
			rounds := newLockstep(clients)
			liveRes, err := Run(context.Background(), liveDep, RunnerConfig{
				StepsPerClient: steps, Transport: TransportPipe, GradTimeout: 30 * time.Second,
				WrapClient: rounds.wrap,
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
			t.Logf("final loss: sim %.4f live %.4f (gap %.2f%%); live wall %v",
				simRes.FinalLoss, liveRes.FinalLoss, relGap*100, liveRes.WallDuration)
			if relGap > tc.tol {
				t.Fatalf("live final loss %.4f deviates %.1f%% from simulation %.4f (tolerance %.0f%%)",
					liveRes.FinalLoss, relGap*100, simRes.FinalLoss, tc.tol*100)
			}
		})
	}
}

// lockstep holds each client's activation for step k until every
// client has sent its activation for step k−1, so no client runs more
// than one step ahead of the slowest. A resend repeats a step and moves
// nothing; the slowest client never waits, so the fleet cannot deadlock.
type lockstep struct {
	mu   sync.Mutex
	cond *sync.Cond
	next []int // per client, the first step not yet sent
}

func newLockstep(clients int) *lockstep {
	l := &lockstep{next: make([]int, clients)}
	l.cond = sync.NewCond(&l.mu)
	return l
}

// wrap has the RunnerConfig.WrapClient signature.
func (l *lockstep) wrap(i int, conn transport.Conn) transport.Conn {
	return &hookConn{Conn: conn, hook: func(m *transport.Message) {
		if m.Type != transport.MsgActivation {
			return
		}
		l.mu.Lock()
		defer l.mu.Unlock()
		for slices.Min(l.next) < m.Seq {
			l.cond.Wait()
		}
		l.next[i] = max(l.next[i], m.Seq+1)
		l.cond.Broadcast()
	}}
}

// TestRunnerCoalescedPolicies exercises every scheduling policy on the
// live runtime with coalescing enabled: the full batch budget must be
// served and every client accounted for, whether the worker drains
// FIFO picks or atomic sync-rounds rounds.
func TestRunnerCoalescedPolicies(t *testing.T) {
	for _, policy := range []string{"fifo", "staleness", "fair-rr", "sync-rounds"} {
		policy := policy
		t.Run(policy, func(t *testing.T) {
			dep := buildDeployment(t, 4, policy)
			const steps = 4
			res, err := Run(context.Background(), dep, RunnerConfig{
				StepsPerClient: steps, GradTimeout: 10 * time.Second,
				Cluster: Config{BatchCoalesce: 3},
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.ServerSteps != 4*steps {
				t.Fatalf("server processed %d batches, want %d", res.ServerSteps, 4*steps)
			}
			for i, s := range res.StepsPerClient {
				if s != steps {
					t.Errorf("client %d contributed %d steps, want %d", i, s, steps)
				}
			}
		})
	}
}

// TestCoalescedBatchFaultIsolation joins one client whose activations
// are valid alongside one that sends garbage the server stack cannot
// consume. The sync-rounds gate makes the coalescing deterministic:
// the worker cannot pop until both clients have queued, and the gated
// round is atomic, so the poisoned and healthy items are guaranteed to
// land in one multi-item batch. The stacked pass fails; the worker
// must fall back to serial, evict only the offender, and finish the
// healthy client's budget.
func TestCoalescedBatchFaultIsolation(t *testing.T) {
	dep := buildDeployment(t, 2, "sync-rounds")
	srv := startServer(t, dep, Config{BatchCoalesce: 4})

	// The poisoned client speaks the protocol but ships a payload with
	// the wrong trailing shape for the server's cut point.
	poisoned := rawJoin(t, srv, 1)
	if err := poisoned.Send(&transport.Message{
		Type: transport.MsgActivation, ClientID: 1, Seq: 0,
		Payload: tensor.New(8, 3), Labels: make([]int, 8),
	}); err != nil {
		t.Fatal(err)
	}

	const steps = 4
	healthy, healthySrv := transport.NewPair(1)
	srv.Attach(healthySrv)
	done := make(chan error, 1)
	go func() {
		_, err := RunClient(context.Background(), dep.Clients[0], healthy, ClientConfig{
			Steps: steps, GradTimeout: 10 * time.Second,
		})
		healthy.Close()
		done <- err
	}()
	if err := <-done; err != nil {
		t.Fatalf("healthy client failed alongside poisoned batchmate: %v", err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := srv.AwaitClients(ctx, 2)
	if err == nil {
		t.Fatal("expected the poisoned client's processing error from AwaitClients")
	}
	for _, c := range srv.Snapshot().Clients {
		switch c.ID {
		case 0:
			if c.Served != steps {
				t.Errorf("healthy client served %d, want %d", c.Served, steps)
			}
			if c.Err != "" {
				t.Errorf("healthy client recorded error: %s", c.Err)
			}
		case 1:
			if c.Err == "" {
				t.Error("poisoned client not recorded as evicted")
			}
			if c.Served != 0 {
				t.Errorf("poisoned client served %d, want 0", c.Served)
			}
		}
	}
	poisoned.Close()
}
