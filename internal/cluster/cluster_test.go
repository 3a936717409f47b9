package cluster

import (
	"context"
	"net"
	"strings"
	"testing"
	"time"

	"github.com/stsl/stsl/internal/core"
	"github.com/stsl/stsl/internal/data"
	"github.com/stsl/stsl/internal/mathx"
	"github.com/stsl/stsl/internal/nn"
	"github.com/stsl/stsl/internal/obs"
	"github.com/stsl/stsl/internal/queue"
	"github.com/stsl/stsl/internal/tensor"
	"github.com/stsl/stsl/internal/transport"
)

func smallModel() nn.PaperCNNConfig {
	return nn.PaperCNNConfig{
		InChannels: 3, Height: 8, Width: 8,
		Filters: []int{4, 8},
		Hidden:  16,
		Classes: 4,
	}
}

// buildDeployment wires an n-client deployment on the tiny model.
func buildDeployment(t testing.TB, clients int, policy string) *core.Deployment {
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
		Model: smallModel(), Cut: 1, Clients: clients, Seed: 5,
		BatchSize: 8, LR: 0.05, QueuePolicy: policy,
	}, shards)
	if err != nil {
		t.Fatal(err)
	}
	return dep
}

// startServer builds and starts a cluster server over a deployment's
// core server, with cleanup registered.
func startServer(t *testing.T, dep *core.Deployment, cfg Config) *Server {
	t.Helper()
	srv, err := NewServer(dep.Server, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	return srv
}

// rawJoin attaches an in-memory connection and performs the join
// handshake by hand, for tests that drive the wire protocol message by
// message.
func rawJoin(t *testing.T, srv *Server, id int) transport.Conn {
	t.Helper()
	conn, serverSide := transport.NewPair(1)
	srv.Attach(serverSide)
	if err := conn.Send(&transport.Message{
		Type: transport.MsgControl, ClientID: id, Note: core.JoinNote,
	}); err != nil {
		t.Fatal(err)
	}
	if msg, err := conn.Recv(); err != nil || msg.Note != core.WelcomeNote {
		t.Fatalf("client %d join: msg=%v err=%v", id, msg, err)
	}
	return conn
}

// TestSessionLifecycle drives two concurrent clients through the full
// join → train → done handshake over in-memory connections.
func TestSessionLifecycle(t *testing.T) {
	dep := buildDeployment(t, 2, "fifo")
	srv := startServer(t, dep, Config{})

	// 2×6 = 12 server steps fills the loss curve's 10-step window.
	const steps = 6
	errs := make(chan error, 2)
	for i, es := range dep.Clients {
		es := es
		client, server := transport.NewPair(1)
		srv.Attach(server)
		go func() {
			_, err := RunClient(context.Background(), es, client, ClientConfig{
				Steps: steps, GradTimeout: 5 * time.Second,
			})
			client.Close()
			errs <- err
		}()
		_ = i
	}
	for i := 0; i < 2; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.AwaitClients(ctx, 2); err != nil {
		t.Fatal(err)
	}
	snap := srv.Snapshot()
	if snap.ServerSteps != 2*steps {
		t.Fatalf("server processed %d batches, want %d", snap.ServerSteps, 2*steps)
	}
	for _, c := range snap.Clients {
		if c.Served != steps {
			t.Errorf("client %d served %d, want %d", c.ID, c.Served, steps)
		}
		if !c.Done {
			t.Errorf("client %d not marked done", c.ID)
		}
	}
	if snap.LastLoss <= 0 {
		t.Errorf("no loss recorded: %v", snap.LastLoss)
	}
}

// frameTap counts the payload frames crossing one end-system's
// connection and records the wire dtype of every gradient it receives
// (the decoder sets the tag from the frame it read).
type frameTap struct {
	transport.Conn
	acts, grads int
	gradDTypes  map[tensor.DType]int
}

func (c *frameTap) Send(m *transport.Message) error {
	if m.Type == transport.MsgActivation {
		c.acts++
	}
	return c.Conn.Send(m)
}

func (c *frameTap) Recv() (*transport.Message, error) {
	m, err := c.Conn.Recv()
	if err == nil && m.Type == transport.MsgGradient {
		c.grads++
		c.gradDTypes[m.Payload.DType()]++
	}
	return m, err
}

// TestMixedPrecisionFleet: the wire dtype is each sender's choice and
// the server answers in kind. One Float32 and one Float64 end-system
// train against the same coalescing server over byte-counted pipes:
// each must receive gradients only in its own encoding, the float32
// link must carry half the bytes per payload frame, and both must be
// served exactly once per step.
func TestMixedPrecisionFleet(t *testing.T) {
	dep := buildDeployment(t, 2, "fifo")
	dep.Clients[0].WireDType = tensor.Float32
	dep.Clients[1].WireDType = tensor.Float64
	srv := startServer(t, dep, Config{BatchCoalesce: 2})

	const steps = 8
	type outcome struct {
		id    int
		tap   *frameTap
		bytes int64
		res   *ClientResult
		err   error
	}
	outcomes := make(chan outcome, 2)
	for _, es := range dep.Clients {
		es := es
		clientNC, serverNC := net.Pipe()
		srv.Attach(transport.NewTCPConn(serverNC))
		ins := &transport.ConnInstruments{BytesIn: new(obs.Counter), BytesOut: new(obs.Counter)}
		tap := &frameTap{
			Conn:       transport.NewInstrumentedTCPConn(clientNC, ins),
			gradDTypes: map[tensor.DType]int{},
		}
		go func() {
			res, err := RunClient(context.Background(), es, tap, ClientConfig{
				Steps: steps, GradTimeout: 10 * time.Second,
			})
			tap.Close()
			outcomes <- outcome{es.ID, tap, ins.BytesIn.Value() + ins.BytesOut.Value(), res, err}
		}()
	}
	perFrame := make([]float64, 2)
	for range dep.Clients {
		o := <-outcomes
		if o.err != nil {
			t.Fatalf("client %d: %v", o.id, o.err)
		}
		if o.res.Steps != steps {
			t.Errorf("client %d contributed %d steps, want %d", o.id, o.res.Steps, steps)
		}
		want := dep.Clients[o.id].WireDType
		if len(o.tap.gradDTypes) != 1 || o.tap.gradDTypes[want] != o.tap.grads {
			t.Errorf("client %d (%v) received gradient frames %v", o.id, want, o.tap.gradDTypes)
		}
		perFrame[o.id] = float64(o.bytes) / float64(o.tap.acts+o.tap.grads)
	}
	// 512 elements a payload: 2048 B against 4096 B, plus the same
	// header, labels and join/leave frames on both links.
	if ratio := perFrame[0] / perFrame[1]; ratio < 0.5 || ratio > 0.56 {
		t.Errorf("float32 link carries %.0f B per payload frame, float64 %.0f B: ratio %.3f, want about 1/2",
			perFrame[0], perFrame[1], ratio)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.AwaitClients(ctx, 2); err != nil {
		t.Fatal(err)
	}
	snap := srv.Snapshot()
	if snap.ServerSteps != 2*steps {
		t.Errorf("server processed %d batches, want %d", snap.ServerSteps, 2*steps)
	}
	for _, c := range snap.Clients {
		if c.Served != steps || !c.Done {
			t.Errorf("client %d: served %d (want %d), done %v", c.ID, c.Served, steps, c.Done)
		}
	}
}

// TestDuplicateJoinRejected verifies a second session with a live id is
// refused at the handshake.
func TestDuplicateJoinRejected(t *testing.T) {
	dep := buildDeployment(t, 1, "fifo")
	srv := startServer(t, dep, Config{})

	rawJoin(t, srv, 0) // the live holder of id 0

	second, secondSrv := transport.NewPair(1)
	srv.Attach(secondSrv)
	if err := second.Send(&transport.Message{
		Type: transport.MsgControl, ClientID: 0, Note: core.JoinNote,
	}); err != nil {
		t.Fatal(err)
	}
	msg, err := second.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(msg.Note, core.AbortNote) {
		t.Fatalf("duplicate join got %q, want abort", msg.Note)
	}
}

// heldFIFO is a FIFO that yields nothing until release is closed: it
// holds the worker by construction, so a test can fill the queue to its
// cap without racing the model.
type heldFIFO struct {
	*queue.FIFO
	release chan struct{}
}

func (q *heldFIFO) held() bool {
	select {
	case <-q.release:
		return false
	default:
		return true
	}
}

func (q *heldFIFO) Pop(now time.Duration) (queue.Item, bool) {
	if q.held() {
		return queue.Item{}, false
	}
	return q.FIFO.Pop(now)
}

func (q *heldFIFO) PopBatch(now time.Duration, max int) []queue.Item {
	if q.held() {
		return nil
	}
	return q.FIFO.PopBatch(now, max)
}

// heldServer starts a server whose worker is held (see heldFIFO) and
// joins n raw sessions that each upload one activation. release lets the
// worker drain; awaitGradients then collects each session's reply.
func heldServer(t *testing.T, n int, cfg Config) (srv *Server, release func(), awaitGradients func()) {
	t.Helper()
	dep := buildDeployment(t, n, "fifo")
	hold := &heldFIFO{FIFO: queue.NewFIFO(), release: make(chan struct{})}
	dep.Server.Queue = hold
	srv = startServer(t, dep, cfg)
	conns := make([]transport.Conn, n)
	seqs := make([]int, n)
	for i, es := range dep.Clients {
		conn := rawJoin(t, srv, es.ID)
		t.Cleanup(func() { conn.Close() })
		batch, err := es.ProduceBatch(0)
		if err != nil {
			t.Fatal(err)
		}
		if err := conn.Send(batch); err != nil {
			t.Fatal(err)
		}
		conns[i], seqs[i] = conn, batch.Seq
	}
	release = func() {
		close(hold.release)
		srv.q.Deactivate(-1) // the worker last saw an empty draw; wake it
	}
	awaitGradients = func() {
		t.Helper()
		for i, conn := range conns {
			reply, err := conn.Recv()
			if err != nil {
				t.Fatalf("client %d: %v", i, err)
			}
			if reply.Type != transport.MsgGradient || reply.Seq != seqs[i] {
				t.Fatalf("client %d got %v seq %d, want gradient seq %d", i, reply.Type, reply.Seq, seqs[i])
			}
		}
	}
	return srv, release, awaitGradients
}

// TestBackpressurePark fills a cap-1 queue while the worker is held: the
// second arrival must wait in its session goroutine — depth stays at the
// cap and the park is counted once — and once the worker drains, both
// batches are served exactly once.
func TestBackpressurePark(t *testing.T) {
	reg := obs.NewRegistry()
	srv, release, awaitGradients := heldServer(t, 2, Config{QueueCap: 1, Obs: reg})
	parked := reg.Counter("stsl_queue_parked_total", obs.Labels{"policy": "fifo"})

	waitFor(t, func() bool { return parked.Value() == 1 })
	if snap := srv.Snapshot(); snap.QueueDepth != 1 || snap.ServerSteps != 0 {
		t.Fatalf("held at the cap: depth %d steps %d, want depth 1 steps 0", snap.QueueDepth, snap.ServerSteps)
	}

	release()
	awaitGradients()
	if snap := srv.Snapshot(); snap.ServerSteps != 2 || snap.MaxQueueDepth != 1 {
		t.Fatalf("after release: steps %d max depth %d, want 2 and 1", snap.ServerSteps, snap.MaxQueueDepth)
	}
	if got := parked.Value(); got != 1 {
		t.Fatalf("stsl_queue_parked_total = %d, want 1 (wait-retry rounds must not re-count)", got)
	}
}

// TestProtocolViolationEvicts: a session that breaks the protocol is the
// peer's fault, so even with resume enabled it is ended with its error
// and recorded as an eviction — never parked for a client that will not
// come back honest.
func TestProtocolViolationEvicts(t *testing.T) {
	for _, tc := range []struct {
		name    string
		corrupt func(*transport.Message)
		want    string
	}{
		{"foreign client id", func(m *transport.Message) { m.ClientID = 7 }, "sent activation for client 7"},
		{"negative seq", func(m *transport.Message) { m.Seq = -1 }, "sent negative seq -1"},
		{"unexpected type", func(m *transport.Message) { m.Type, m.Labels = transport.MsgGradient, nil }, "sent unexpected"},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			reg := obs.NewRegistry()
			dep := buildDeployment(t, 1, "fifo")
			srv := startServer(t, dep, Config{ResumeGrace: 10 * time.Second, Obs: reg})
			conn := rawJoin(t, srv, 0)
			defer conn.Close()
			msg, err := dep.Clients[0].ProduceBatch(0)
			if err != nil {
				t.Fatal(err)
			}
			tc.corrupt(msg)
			if err := conn.Send(msg); err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			err = srv.AwaitClients(ctx, 1)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("session ended with %v, want an error containing %q", err, tc.want)
			}
			if _, err := conn.Recv(); err == nil {
				t.Fatal("violator's connection still open")
			}
			c := srv.Snapshot().Clients[0]
			if c.Parked || !strings.Contains(c.Err, tc.want) {
				t.Fatalf("session status %+v, want ended (not parked) with the violation recorded", c)
			}
			event := func(kind string) int64 {
				return reg.Counter("stsl_cluster_sessions_total", obs.Labels{"event": kind}).Value()
			}
			if event("evict") != 1 || event("park") != 0 {
				t.Fatalf("evict=%d park=%d, want 1 and 0", event("evict"), event("park"))
			}
		})
	}
}

// TestStragglerDropped verifies a silent client is evicted and does not
// stall a gated (sync-rounds) policy for the healthy one.
func TestStragglerDropped(t *testing.T) {
	dep := buildDeployment(t, 2, "sync-rounds")
	srv := startServer(t, dep, Config{StragglerTimeout: 100 * time.Millisecond})

	// Client 1 joins, then goes silent forever.
	silent := rawJoin(t, srv, 1)

	// Client 0 trains normally; sync-rounds would deadlock on client 1
	// unless the janitor deactivates it.
	const steps = 3
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
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := srv.AwaitClients(ctx, 2)
	if err == nil {
		t.Fatal("expected straggler error from AwaitClients")
	}
	if !strings.Contains(err.Error(), "straggler") {
		t.Fatalf("error %v does not mention straggler", err)
	}
	var dropped bool
	for _, c := range srv.Snapshot().Clients {
		if c.ID == 1 && c.Err != "" {
			dropped = true
		}
		if c.ID == 0 && c.Served != steps {
			t.Errorf("healthy client served %d, want %d", c.Served, steps)
		}
	}
	if !dropped {
		t.Fatal("silent client not recorded as dropped")
	}
	silent.Close()
}

// TestGracefulShutdown cancels the server mid-training and checks every
// goroutine unwinds and the client surfaces a connection error. A parked
// session at shutdown ends with a leave, like the live one, and frees its
// admission slot.
func TestGracefulShutdown(t *testing.T) {
	dep := buildDeployment(t, 1, "fifo")
	reg := obs.NewRegistry()
	srv, err := NewServer(dep.Server, Config{ResumeGrace: 10 * time.Second, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	rawJoin(t, srv, 1).Close()
	waitFor(t, func() bool {
		cs := srv.Snapshot().Clients
		return len(cs) == 1 && cs[0].Parked
	})

	client, server := transport.NewPair(1)
	srv.Attach(server)
	clientErr := make(chan error, 1)
	go func() {
		// More steps than will ever complete: shutdown interrupts.
		_, err := RunClient(context.Background(), dep.Clients[0], client, ClientConfig{
			Steps: 1_000_000, GradTimeout: 10 * time.Second,
		})
		clientErr <- err
	}()

	// Let some training happen, then pull the plug.
	deadline := time.Now().Add(5 * time.Second)
	for srv.Snapshot().ServerSteps < 2 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-clientErr:
		if err == nil {
			t.Fatal("client finished 1M steps impossibly fast")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("client did not unwind after shutdown")
	}
	events := func(kind string) int64 {
		return reg.Counter("stsl_cluster_sessions_total", obs.Labels{"event": kind}).Value()
	}
	if j, p, l, e := events("join"), events("park"), events("leave"), events("evict"); j != 2 || p != 1 || l != 2 || e != 0 {
		t.Errorf("lifecycle counters join=%d park=%d leave=%d evict=%d, want 2, 1, 2, 0", j, p, l, e)
	}
	if h := srv.Health(); h.Sessions != 0 {
		t.Errorf("Health().Sessions = %d after shutdown, want 0", h.Sessions)
	}
	for _, c := range srv.Snapshot().Clients {
		if c.Parked {
			t.Errorf("client %d still parked after shutdown", c.ID)
		}
	}
}

// TestServeListenerAttachesUntilShutdown: the accept loop the binaries
// run hands every dialled TCP connection to a session and returns once
// the server stops.
func TestServeListenerAttachesUntilShutdown(t *testing.T) {
	dep := buildDeployment(t, 1, "fifo")
	srv := startServer(t, dep, Config{})
	lis, err := transport.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	served := make(chan struct{})
	go func() {
		srv.ServeListener(lis)
		close(served)
	}()

	conn, err := transport.Dial(lis.Addr())
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunClient(context.Background(), dep.Clients[0], conn, ClientConfig{
		Steps: 2, GradTimeout: 5 * time.Second,
	})
	conn.Close()
	if err != nil || res.Steps != 2 {
		t.Fatalf("client over the listener: %+v, %v", res, err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	select {
	case <-served:
	case <-time.After(5 * time.Second):
		t.Fatal("ServeListener still accepting after Shutdown")
	}
}

// TestSnapshotDuringTraining takes snapshots concurrently with training
// — under -race this proves the metrics path is data-race free.
func TestSnapshotDuringTraining(t *testing.T) {
	dep := buildDeployment(t, 2, "fair-rr")
	srv := startServer(t, dep, Config{})

	const steps = 5
	errs := make(chan error, 2)
	for _, es := range dep.Clients {
		es := es
		client, server := transport.NewPair(1)
		srv.Attach(server)
		go func() {
			_, err := RunClient(context.Background(), es, client, ClientConfig{
				Steps: steps, GradTimeout: 5 * time.Second,
			})
			client.Close()
			errs <- err
		}()
	}
	stop := make(chan struct{})
	go func() {
		for {
			select {
			case <-stop:
				return
			default:
				_ = srv.Snapshot().String()
			}
		}
	}()
	for i := 0; i < 2; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.AwaitClients(ctx, 2); err != nil {
		t.Fatal(err)
	}
	if got := srv.Snapshot().ServerSteps; got != 2*steps {
		t.Fatalf("server processed %d, want %d", got, 2*steps)
	}
}
