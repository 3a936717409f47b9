package cluster

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"github.com/stsl/stsl/internal/core"
	"github.com/stsl/stsl/internal/data"
	"github.com/stsl/stsl/internal/mathx"
	"github.com/stsl/stsl/internal/obs"
	"github.com/stsl/stsl/internal/simnet"
	"github.com/stsl/stsl/internal/tensor"
	"github.com/stsl/stsl/internal/transport"
)

// chaosDeployment builds the fixed deployment the chaos suite trains —
// one builder so the live faulty run and the fault-free simulation
// reference start from byte-identical weights and data.
func chaosDeployment(t testing.TB, clients int) *core.Deployment {
	t.Helper()
	ds, err := (data.SynthCIFAR{Height: 8, Width: 8, Classes: 4}).Generate(32*clients, 41)
	if err != nil {
		t.Fatal(err)
	}
	shards, err := data.PartitionIID(ds, clients, mathx.NewRNG(4))
	if err != nil {
		t.Fatal(err)
	}
	dep, err := core.NewDeployment(core.Config{
		Model: smallModel(), Cut: 1, Clients: clients, Seed: 7,
		BatchSize: 8, LR: 0.05, QueuePolicy: "fifo",
	}, shards)
	if err != nil {
		t.Fatal(err)
	}
	return dep
}

// faultFreeLoss runs the virtual-time simulation of the same deployment,
// seed, and budget — the chaos suite's convergence reference.
func faultFreeLoss(t testing.TB, clients, steps int) float64 {
	t.Helper()
	return faultFreeLossOf(t, chaosDeployment(t, clients), steps)
}

// faultFreeLossOf is faultFreeLoss for a deployment the caller built.
func faultFreeLossOf(t testing.TB, dep *core.Deployment, steps int) float64 {
	t.Helper()
	clients := len(dep.Clients)
	paths := make([]*simnet.Path, clients)
	for i := range paths {
		p, err := simnet.NewSymmetricPath(simnet.Constant{D: 5 * time.Millisecond}, 0,
			mathx.NewRNG(uint64(1000+i)))
		if err != nil {
			t.Fatal(err)
		}
		paths[i] = p
	}
	sim, err := core.NewSimulation(dep, core.SimConfig{
		Paths: paths, MaxStepsPerClient: steps, ServerProcTime: 2 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalLoss <= 0 {
		t.Fatalf("degenerate reference loss %v", res.FinalLoss)
	}
	return res.FinalLoss
}

// TestChaosConformance is the chaos acceptance gate: the live runtime,
// under seeded fault schedules that drop, truncate, delay, and duplicate
// traffic mid-training, must not merely survive — it must train every
// scheduled batch exactly once (resume + dedup) and land within ±10% of
// the fault-free virtual-time simulation's loss on the same seed.
func TestChaosConformance(t *testing.T) {
	const (
		clients = 3
		steps   = 20
	)
	reference := faultFreeLoss(t, clients, steps)

	cases := []struct {
		name string
		// plan builds client i's fault schedule (nil = healthy client).
		plan func(i int) *simnet.FaultPlan
	}{
		{
			// Every client loses its link on a fixed send cadence —
			// steady churn across the whole run.
			name: "drop-every-5th-send",
			plan: func(i int) *simnet.FaultPlan {
				return &simnet.FaultPlan{SeverEverySends: 5}
			},
		},
		{
			// One client's gateway flaps three times in a row early on
			// (the hospital-restarts scenario); the rest stay clean.
			name: "burst-disconnect",
			plan: func(i int) *simnet.FaultPlan {
				if i != 1 {
					return nil
				}
				return &simnet.FaultPlan{SeverAtSends: []int{3, 4, 5}}
			},
		},
		{
			// A far client on a degraded path: slow and occasionally
			// truncating frames mid-wire.
			name: "slow-client-with-truncation",
			plan: func(i int) *simnet.FaultPlan {
				if i != 0 {
					return nil
				}
				return &simnet.FaultPlan{
					Seed: 11, DelayProb: 0.5, Delay: 3 * time.Millisecond,
					TruncateEverySends: 6,
				}
			},
		},
		{
			// A retransmitting network: deliveries are duplicated, and
			// seeded random severs hit every client.
			name: "duplicates-and-random-severs",
			plan: func(i int) *simnet.FaultPlan {
				return &simnet.FaultPlan{
					Seed: uint64(100 + i), DupProb: 0.15, SeverProb: 0.05,
				}
			},
		},
	}

	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			schedules := make([]simnet.FaultSchedule, clients)
			for i := 0; i < clients; i++ {
				if p := tc.plan(i); p != nil {
					schedules[i] = simnet.NewFaults(*p)
				}
			}
			dep := chaosDeployment(t, clients)
			ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
			defer cancel()
			res, err := Run(ctx, dep, RunnerConfig{
				StepsPerClient: steps,
				GradTimeout:    20 * time.Second,
				Cluster:        Config{ResumeGrace: 10 * time.Second},
				Faults:         func(i int) simnet.FaultSchedule { return schedules[i] },
				Retry:          50,
				RetryBackoff:   2 * time.Millisecond,
			})
			if err != nil {
				t.Fatalf("chaotic run failed: %v", err)
			}
			// Exactly-once: dedup-by-seq plus the reply cache mean churn
			// may delay batches but never lose or double-train them.
			if res.ServerSteps != clients*steps {
				t.Fatalf("server processed %d batches, want exactly %d", res.ServerSteps, clients*steps)
			}
			for i, s := range res.StepsPerClient {
				if s != steps {
					t.Errorf("client %d contributed %d steps, want %d", i, s, steps)
				}
			}
			gap := math.Abs(res.FinalLoss-reference) / reference
			t.Logf("loss: fault-free sim %.4f, chaotic live %.4f (gap %.1f%%); %d reconnects",
				reference, res.FinalLoss, gap*100, res.Reconnects)
			if gap > 0.10 {
				t.Fatalf("chaotic loss %.4f deviates %.1f%% from fault-free %.4f (tolerance 10%%)",
					res.FinalLoss, gap*100, reference)
			}
		})
	}
}

// TestChaosReconnectActuallyHappens guards the harness itself: a plan
// that severs every few sends must produce observable churn (reconnects
// and server-side resumes), or the suite would silently degrade into a
// fault-free test.
func TestChaosReconnectActuallyHappens(t *testing.T) {
	const (
		clients = 2
		steps   = 10
	)
	schedules := make([]simnet.FaultSchedule, clients)
	for i := range schedules {
		schedules[i] = simnet.NewFaults(simnet.FaultPlan{SeverEverySends: 4})
	}
	dep := chaosDeployment(t, clients)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	res, err := Run(ctx, dep, RunnerConfig{
		StepsPerClient: steps,
		GradTimeout:    20 * time.Second,
		Cluster:        Config{ResumeGrace: 10 * time.Second},
		Faults:         func(i int) simnet.FaultSchedule { return schedules[i] },
		Retry:          50,
		RetryBackoff:   time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Reconnects == 0 {
		t.Fatal("fault plan injected no reconnects — the chaos harness is not engaging")
	}
	resumes := 0
	for _, c := range res.Snapshot.Clients {
		resumes += c.Resumes
	}
	if resumes == 0 {
		t.Fatalf("%d reconnects but no server-side session resumes recorded", res.Reconnects)
	}
}

// TestResumeReclaimsSession drives the resume protocol by hand: a client
// joins, uploads a batch, loses its connection before the gradient
// arrives, reconnects with its token — and must get the very gradient it
// was owed, served from the reply cache, without the server training the
// batch twice.
func TestResumeReclaimsSession(t *testing.T) {
	dep := buildDeployment(t, 1, "fifo")
	srv := startServer(t, dep, Config{ResumeGrace: 10 * time.Second})
	es := dep.Clients[0]

	conn, serverSide := transport.NewPair(1)
	srv.Attach(serverSide)
	if err := conn.Send(&transport.Message{
		Type: transport.MsgControl, ClientID: 0, Note: core.JoinNote,
	}); err != nil {
		t.Fatal(err)
	}
	welcome, err := conn.Recv()
	if err != nil || welcome.Note != core.WelcomeNote {
		t.Fatalf("join: msg=%v err=%v", welcome, err)
	}
	token := welcome.Seq
	if token == 0 {
		t.Fatal("welcome carried no session token")
	}

	// Upload one batch, then kill the connection before reading the
	// reply: the gradient lands in the session's reply cache.
	msg, err := es.ProduceBatch(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := conn.Send(msg); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return srv.Snapshot().ServerSteps == 1 })
	conn.Close()
	waitFor(t, func() bool {
		cs := srv.Snapshot().Clients
		return len(cs) == 1 && cs[0].Parked
	})

	// Reconnect with the token; the resumed session must answer the
	// resent seq from the cache, not retrain it.
	conn2, serverSide2 := transport.NewPair(1)
	srv.Attach(serverSide2)
	if err := conn2.Send(&transport.Message{
		Type: transport.MsgControl, ClientID: 0, Note: core.ResumeNote, Seq: token,
	}); err != nil {
		t.Fatal(err)
	}
	welcome2, err := conn2.Recv()
	if err != nil || welcome2.Note != core.WelcomeNote {
		t.Fatalf("resume: msg=%v err=%v", welcome2, err)
	}
	if welcome2.Seq != token {
		t.Fatalf("resume reissued token %d, want original %d", welcome2.Seq, token)
	}
	if err := conn2.Send(msg); err != nil { // resend the in-flight batch
		t.Fatal(err)
	}
	grad, err := conn2.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if grad.Type != transport.MsgGradient || grad.Seq != msg.Seq {
		t.Fatalf("resumed session got %v seq %d, want gradient seq %d", grad.Type, grad.Seq, msg.Seq)
	}
	if got := srv.Snapshot().ServerSteps; got != 1 {
		t.Fatalf("server trained the resent batch again: %d steps, want 1", got)
	}
	if err := es.ApplyGradient(grad); err != nil {
		t.Fatal(err)
	}
	snap := srv.Snapshot()
	if snap.Clients[0].Resumes != 1 {
		t.Fatalf("recorded %d resumes, want 1", snap.Clients[0].Resumes)
	}
	conn2.Close()
}

// TestResumeBadTokenRefused checks the token actually guards the
// session: a reconnect with the wrong credential is aborted and the
// parked session stays reclaimable by the real client.
func TestResumeBadTokenRefused(t *testing.T) {
	dep := buildDeployment(t, 1, "fifo")
	srv := startServer(t, dep, Config{ResumeGrace: 10 * time.Second})

	conn, serverSide := transport.NewPair(1)
	srv.Attach(serverSide)
	if err := conn.Send(&transport.Message{
		Type: transport.MsgControl, ClientID: 0, Note: core.JoinNote,
	}); err != nil {
		t.Fatal(err)
	}
	welcome, err := conn.Recv()
	if err != nil || welcome.Note != core.WelcomeNote {
		t.Fatalf("join: msg=%v err=%v", welcome, err)
	}
	token := welcome.Seq
	conn.Close()
	waitFor(t, func() bool {
		cs := srv.Snapshot().Clients
		return len(cs) == 1 && cs[0].Parked
	})

	thief, thiefSide := transport.NewPair(1)
	srv.Attach(thiefSide)
	if err := thief.Send(&transport.Message{
		Type: transport.MsgControl, ClientID: 0, Note: core.ResumeNote, Seq: token + 1,
	}); err != nil {
		t.Fatal(err)
	}
	reply, err := thief.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if reply.Note != core.AbortNote+": bad resume token" {
		t.Fatalf("bad token got %q", reply.Note)
	}

	// The rightful owner still resumes.
	owner, ownerSide := transport.NewPair(1)
	srv.Attach(ownerSide)
	if err := owner.Send(&transport.Message{
		Type: transport.MsgControl, ClientID: 0, Note: core.ResumeNote, Seq: token,
	}); err != nil {
		t.Fatal(err)
	}
	if reply, err := owner.Recv(); err != nil || reply.Note != core.WelcomeNote {
		t.Fatalf("owner resume: msg=%v err=%v", reply, err)
	}
	owner.Close()
	thief.Close()
}

// TestGraceExpiryEvicts checks the janitor's third state: a parked
// session whose client never returns is evicted once the grace window
// closes, with an error that says why, and the cluster keeps serving.
func TestGraceExpiryEvicts(t *testing.T) {
	dep := buildDeployment(t, 2, "fifo")
	srv := startServer(t, dep, Config{ResumeGrace: 50 * time.Millisecond})

	// Client 1 joins and vanishes.
	ghost := rawJoin(t, srv, 1)
	ghost.Close()

	// Client 0 trains normally through the churn.
	const steps = 3
	healthy, healthySide := transport.NewPair(1)
	srv.Attach(healthySide)
	done := make(chan error, 1)
	go func() {
		_, err := RunClient(context.Background(), dep.Clients[0], healthy, ClientConfig{
			Steps: steps, GradTimeout: 10 * time.Second,
		})
		healthy.Close()
		done <- err
	}()
	if err := <-done; err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := srv.AwaitClients(ctx, 2)
	if err == nil {
		t.Fatal("expected grace-expiry eviction error from AwaitClients")
	}
	var evicted bool
	for _, c := range srv.Snapshot().Clients {
		if c.ID == 1 {
			if c.Parked {
				t.Error("ghost still parked after grace expiry")
			}
			evicted = c.Err != ""
		}
		if c.ID == 0 && c.Served != steps {
			t.Errorf("healthy client served %d, want %d", c.Served, steps)
		}
	}
	if !evicted {
		t.Fatal("ghost not recorded as evicted")
	}
}

// hookConn runs hook before every Send. The chaos tests use it to hold
// uploads until the scenario they stage is in place.
type hookConn struct {
	transport.Conn
	hook func(*transport.Message)
}

func (c *hookConn) Send(m *transport.Message) error {
	c.hook(m)
	return c.Conn.Send(m)
}

// restartableServer is the chaos harness for server restarts: dial
// targets whichever cluster server is currently live, and returns an
// error while the server is down so clients burn a retry and back off —
// exactly what a real endpoint does between process death and rebind.
type restartableServer struct {
	mu  sync.Mutex
	srv *Server
}

func (r *restartableServer) set(s *Server) {
	r.mu.Lock()
	r.srv = s
	r.mu.Unlock()
}

func (r *restartableServer) dial() (transport.Conn, error) {
	r.mu.Lock()
	srv := r.srv
	r.mu.Unlock()
	if srv == nil {
		return nil, fmt.Errorf("server down")
	}
	client, server := transport.NewPair(1)
	srv.Attach(server)
	return client, nil
}

// TestServerRestartFromCheckpoint is the acceptance scenario: training
// runs live, the server process dies mid-round (final checkpoint written
// on the way out), a fresh server restores the checkpoint, and the
// retry-enabled clients re-handshake and finish. The run must complete
// every client's budget and land within ±10% of the fault-free
// simulation's loss on the same seed.
func TestServerRestartFromCheckpoint(t *testing.T) {
	const (
		clients = 2
		steps   = 16
	)
	reference := faultFreeLoss(t, clients, steps)

	// The checkpoint "file" is a buffer: this test models a process
	// restart, not a filesystem (FileCheckpointer has its own test).
	var ckptMu sync.Mutex
	var ckpt bytes.Buffer
	sink := func(srv *core.Server) error {
		ckptMu.Lock()
		defer ckptMu.Unlock()
		ckpt.Reset()
		return srv.SaveState(&ckpt, 0, 0)
	}

	dep := chaosDeployment(t, clients)
	serverCfg := Config{
		ResumeGrace:     10 * time.Second,
		Checkpoint:      sink,
		CheckpointEvery: 4,
	}
	srv1, err := NewServer(dep.Server, serverCfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv1.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	endpoint := &restartableServer{}
	endpoint.set(srv1)
	// Once the first server has served 6 batches, uploads wait for the
	// second one: the restart then lands mid-training for both clients,
	// however the scheduler interleaves them with this goroutine (a
	// client ping-ponging with the worker can otherwise run its whole
	// budget before the poll below sees step 6).
	restarted := make(chan struct{})
	dial := func() (transport.Conn, error) {
		conn, err := endpoint.dial()
		if err != nil {
			return nil, err
		}
		return &hookConn{Conn: conn, hook: func(m *transport.Message) {
			if m.Type == transport.MsgActivation && srv1.Snapshot().ServerSteps >= 6 {
				<-restarted
			}
		}}, nil
	}

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	// Every first connection is made before any client trains: a first
	// dial has no retry, so one made after another client's steps had
	// already taken the server down would fail with "server down".
	conns := make([]transport.Conn, clients)
	for i := range conns {
		conn, err := dial()
		if err != nil {
			t.Fatal(err)
		}
		conns[i] = conn
	}
	outcomes := make(chan error, clients)
	for i := 0; i < clients; i++ {
		i := i
		conn := conns[i]
		go func() {
			res, err := RunClient(ctx, dep.Clients[i], conn, ClientConfig{
				Steps:            steps,
				GradTimeout:      20 * time.Second,
				Dial:             dial,
				MaxReconnects:    200,
				ReconnectBackoff: 2 * time.Millisecond,
			})
			conn.Close()
			if err == nil && res.Steps != steps {
				err = fmt.Errorf("client %d finished %d steps, want %d", i, res.Steps, steps)
			}
			outcomes <- err
		}()
	}

	// Let training get underway, then kill the first server. Its worker
	// writes the final checkpoint during Shutdown.
	waitFor(t, func() bool { return srv1.Snapshot().ServerSteps >= 6 })
	endpoint.set(nil)
	shutCtx, shutCancel := context.WithTimeout(context.Background(), 10*time.Second)
	if err := srv1.Shutdown(shutCtx); err != nil {
		t.Fatal(err)
	}
	shutCancel()
	steppedBeforeRestart := srv1.Snapshot().ServerSteps
	if srv1.Snapshot().Checkpoints == 0 {
		t.Fatal("first server wrote no checkpoints")
	}

	// "Restart": a structurally identical server restores the state the
	// first one persisted, and the endpoint comes back up.
	dep2 := chaosDeployment(t, clients)
	ckptMu.Lock()
	err = dep2.Server.LoadState(bytes.NewReader(ckpt.Bytes()))
	ckptMu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	if got := dep2.Server.Steps(); got == 0 {
		t.Fatal("restored server lost its step counter")
	} else if got > steppedBeforeRestart {
		t.Fatalf("restored %d steps, more than the %d processed", got, steppedBeforeRestart)
	}
	srv2, err := NewServer(dep2.Server, serverCfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv2.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer func() {
		sctx, scancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer scancel()
		if err := srv2.Shutdown(sctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	}()
	endpoint.set(srv2)
	close(restarted)

	for i := 0; i < clients; i++ {
		if err := <-outcomes; err != nil {
			t.Fatalf("client failed across the restart: %v", err)
		}
	}
	awaitCtx, awaitCancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer awaitCancel()
	if err := srv2.AwaitClients(awaitCtx, clients); err != nil {
		t.Fatalf("post-restart sessions: %v", err)
	}

	finalLoss := dep2.Server.Losses.Last()
	gap := math.Abs(finalLoss-reference) / reference
	t.Logf("loss: fault-free sim %.4f, restarted live %.4f (gap %.1f%%); %d steps pre-restart, %d total",
		reference, finalLoss, gap*100, steppedBeforeRestart, dep2.Server.Steps())
	if finalLoss <= 0 {
		t.Fatalf("degenerate post-restart loss %v", finalLoss)
	}
	if gap > 0.10 {
		t.Fatalf("post-restart loss %.4f deviates %.1f%% from fault-free %.4f (tolerance 10%%)",
			finalLoss, gap*100, reference)
	}
}

// TestFileCheckpointerRoundTrip checks the atomic file sink and
// RestoreFromFile, including the missing-file = fresh-start contract.
func TestFileCheckpointerRoundTrip(t *testing.T) {
	path := t.TempDir() + "/server.ckpt"

	dep := buildDeployment(t, 1, "fifo")
	if _, restored, err := RestoreFromFile(path, dep.Server); err != nil || restored {
		t.Fatalf("missing checkpoint: restored=%v err=%v, want fresh start", restored, err)
	}

	// Train a few steps so there is real state to persist.
	res, err := Run(context.Background(), dep, RunnerConfig{StepsPerClient: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.ServerSteps != 3 {
		t.Fatalf("trained %d steps, want 3", res.ServerSteps)
	}
	if err := FileCheckpointer(path)(dep.Server); err != nil {
		t.Fatal(err)
	}

	dep2 := buildDeployment(t, 1, "fifo")
	steps, restored, err := RestoreFromFile(path, dep2.Server)
	if err != nil || !restored {
		t.Fatalf("restore: restored=%v err=%v", restored, err)
	}
	if steps != 3 {
		t.Fatalf("restored %d steps, want 3", steps)
	}
	// The restored stack must be weight-identical to the saved one.
	var a, b bytes.Buffer
	if err := dep.Server.Stack.SaveWeights(&a); err != nil {
		t.Fatal(err)
	}
	if err := dep2.Server.Stack.SaveWeights(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("restored weights differ from checkpointed weights")
	}
}

// waitFor polls cond until it holds or a generous deadline passes.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached within deadline")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestReconnectDuringHandshake severs the very first send — the join
// itself is lost with the connection. The client must redial, complete a
// fresh handshake, and then proceed WITHOUT re-sending a handshake note
// on the established session (a double hello is ignored by the server
// and would strand the client awaiting a second welcome).
func TestReconnectDuringHandshake(t *testing.T) {
	dep := buildDeployment(t, 1, "fifo")
	srv := startServer(t, dep, Config{ResumeGrace: 10 * time.Second})

	sched := simnet.NewFaults(simnet.FaultPlan{SeverAtSends: []int{0}})
	dial := func() (transport.Conn, error) {
		client, server := transport.NewPair(1)
		srv.Attach(server)
		return transport.NewFaultCarrier(client, sched), nil
	}
	conn, err := dial()
	if err != nil {
		t.Fatal(err)
	}
	const steps = 3
	res, err := RunClient(context.Background(), dep.Clients[0], conn, ClientConfig{
		Steps: steps, GradTimeout: 5 * time.Second,
		Dial: dial, MaxReconnects: 5, ReconnectBackoff: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Steps != steps {
		t.Fatalf("client finished %d steps, want %d", res.Steps, steps)
	}
	if res.Reconnects == 0 {
		t.Fatal("severed join produced no reconnect")
	}
}

// TestHelloToleratesEarlyGradient regresses a resume race: the worker
// may scatter a parked reply onto the swapped-in carrier before the
// session loop sends the welcome, so the first message a resuming
// client reads can be a gradient. The handshake must skip it and find
// the welcome — not declare the session refused.
func TestHelloToleratesEarlyGradient(t *testing.T) {
	dep := buildDeployment(t, 1, "fifo")
	clientConn, peer := transport.NewPair(4)

	// Scripted server peer: answer the join with a stray gradient ahead
	// of the welcome, then serve one batch normally.
	done := make(chan error, 1)
	go func() {
		done <- func() error {
			if msg, err := peer.Recv(); err != nil || msg.Note != core.JoinNote {
				return fmt.Errorf("expected join, got %v err %v", msg, err)
			}
			stray := &transport.Message{
				Type: transport.MsgGradient, ClientID: 0, Seq: 99,
				Payload: tensorOfOnes(1, 1),
			}
			if err := peer.Send(stray); err != nil {
				return err
			}
			if err := peer.Send(&transport.Message{
				Type: transport.MsgControl, ClientID: 0, Seq: 42, Note: core.WelcomeNote,
			}); err != nil {
				return err
			}
			act, err := peer.Recv()
			if err != nil {
				return err
			}
			if act.Type != transport.MsgActivation {
				return fmt.Errorf("expected activation, got %v", act.Type)
			}
			grad := &transport.Message{
				Type: transport.MsgGradient, ClientID: 0, Seq: act.Seq,
				Payload: tensorZerosLike(act.Payload),
			}
			if err := peer.Send(grad); err != nil {
				return err
			}
			if msg, err := peer.Recv(); err != nil || msg.Note != core.DoneNote {
				return fmt.Errorf("expected done, got %v err %v", msg, err)
			}
			return nil
		}()
	}()

	res, err := RunClient(context.Background(), dep.Clients[0], clientConn, ClientConfig{
		Steps: 1, GradTimeout: 5 * time.Second,
	})
	if err != nil {
		t.Fatalf("client treated the early gradient as a refusal: %v", err)
	}
	if res.Steps != 1 {
		t.Fatalf("client finished %d steps, want 1", res.Steps)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// TestJoinDisplacesParkedSession regresses the lost-welcome dead end: a
// client whose welcome never arrived holds no token, so its reconnect is
// a fresh join — which must displace the parked half-open incarnation
// cleanly instead of aborting "duplicate client id". The displaced
// incarnation ends with a leave of its own, so the lifecycle counters
// balance: each join gets exactly one leave or evict.
func TestJoinDisplacesParkedSession(t *testing.T) {
	dep := buildDeployment(t, 1, "fifo")
	reg := obs.NewRegistry()
	srv := startServer(t, dep, Config{ResumeGrace: 10 * time.Second, Obs: reg})

	// First incarnation: join, get welcomed, die before using it.
	first := rawJoin(t, srv, 0)
	first.Close()
	waitFor(t, func() bool {
		cs := srv.Snapshot().Clients
		return len(cs) == 1 && cs[0].Parked
	})

	// Second incarnation joins fresh (no token) and must train normally.
	second, secondSide := transport.NewPair(1)
	srv.Attach(secondSide)
	res, err := RunClient(context.Background(), dep.Clients[0], second, ClientConfig{
		Steps: 3, GradTimeout: 5 * time.Second,
	})
	if err != nil {
		t.Fatalf("fresh join against parked session refused: %v", err)
	}
	if res.Steps != 3 {
		t.Fatalf("client finished %d steps, want 3", res.Steps)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	// The displaced incarnation ended cleanly, so no session errors.
	if err := srv.AwaitClients(ctx, 1); err != nil {
		t.Fatalf("displaced parked session left an error: %v", err)
	}
	second.Close()
	// Shutdown returns once every receive loop has ended, the second
	// incarnation's included.
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	events := func(kind string) int64 {
		return reg.Counter("stsl_cluster_sessions_total", obs.Labels{"event": kind}).Value()
	}
	if j, l, e := events("join"), events("leave"), events("evict"); j != 2 || l != 2 || e != 0 {
		t.Fatalf("lifecycle counters join=%d leave=%d evict=%d, want 2, 2, 0", j, l, e)
	}
}

// tensorOfOnes builds a payload tensor for scripted-peer messages.
func tensorOfOnes(shape ...int) *tensor.Tensor {
	tt := tensor.New(shape...)
	for i := range tt.Data() {
		tt.Data()[i] = 1
	}
	return tt
}

// tensorZerosLike builds a zero gradient matching an activation's shape.
func tensorZerosLike(act *tensor.Tensor) *tensor.Tensor {
	return tensor.New(act.Shape()...)
}
