package cluster

import (
	"context"
	"errors"
	"fmt"
	"net"
	"strconv"
	"time"

	"github.com/stsl/stsl/internal/core"
	"github.com/stsl/stsl/internal/obs"
	"github.com/stsl/stsl/internal/simnet"
	"github.com/stsl/stsl/internal/transport"
)

// Transport selects how in-process runner clients reach the server.
type Transport string

const (
	// TransportPair uses in-memory channel connections (fastest; no
	// serialisation).
	TransportPair Transport = "pair"
	// TransportPipe uses net.Pipe under the binary wire framing — full
	// encode/decode fidelity without sockets; the standard test harness.
	TransportPipe Transport = "pipe"
	// TransportTCP uses real loopback TCP sockets.
	TransportTCP Transport = "tcp"
)

// RunnerConfig parameterises an in-process live-cluster run.
type RunnerConfig struct {
	// StepsPerClient is each end-system's batch budget (required).
	StepsPerClient int
	// Transport selects the carrier (default pair).
	Transport Transport
	// Cluster holds the server-side knobs (cap, overflow, straggler,
	// coalescing, resume grace, checkpointing). Cluster.BatchCoalesce ==
	// 0 inherits the deployment's core.Config.BatchCoalesce so one
	// config drives both runtimes; set it to 1 to force serial service
	// regardless of the deployment.
	Cluster Config
	// GradTimeout bounds each client's wait for a gradient (default 30s
	// — a liveness backstop, not a tuning knob).
	GradTimeout time.Duration
	// Faults assigns client i a fault schedule; every carrier that
	// client dials (including reconnects) is wrapped in a
	// transport.FaultCarrier driven by it. nil — or a nil schedule for a
	// given client — injects nothing. The schedule object persists
	// across that client's reconnects, so seeded plans stay
	// deterministic for the whole run.
	Faults func(client int) simnet.FaultSchedule
	// Retry is each client's reconnect budget after a connection loss
	// (0 = fail on first loss, the pre-churn behaviour). Pair it with
	// Cluster.ResumeGrace so the server holds the session open.
	Retry int
	// RetryBackoff is the pause before each reconnect attempt
	// (default 5ms).
	RetryBackoff time.Duration
	// Checksum enables CRC32C-checksummed framing on both directions:
	// every client carrier and (via Cluster.Checksum) every server-side
	// conn sends self-describing checksummed frames, so corruption
	// injected anywhere on the path is detected rather than decoded.
	// Meaningful only on transports with a wire format (pipe, tcp); the
	// in-memory pair transport passes messages by pointer.
	Checksum bool
	// ServerFaults assigns the server side of client i's connection a
	// fault schedule: the accepted conn is wrapped in a
	// transport.FaultCarrier before Attach, so injected corruption and
	// truncation hit the server's receive path. Like Faults, the
	// schedule persists across that client's reconnects. On the TCP
	// transport accepted conns are matched to schedules in accept order,
	// which equals client order only until the first reconnect.
	ServerFaults func(client int) simnet.FaultSchedule
	// WrapClient, when non-nil, wraps client i's fully assembled carrier
	// (outermost, above any FaultCarrier) on every dial — the hook the
	// hostile-fleet chaos suite uses to install transport.HostileCarrier
	// poisoners on selected clients. Return conn unchanged for the rest.
	WrapClient func(client int, conn transport.Conn) transport.Conn
}

// RunnerResult summarises a live run, shaped for side-by-side comparison
// with core.SimResult.
type RunnerResult struct {
	// WallDuration is the real elapsed time of the run.
	WallDuration time.Duration
	// StepsPerClient counts batches contributed by each client.
	StepsPerClient []int
	// ServerSteps is the total number of batches the server processed.
	ServerSteps int
	// FinalLoss is the last window-averaged training loss.
	FinalLoss float64
	// Rejected counts backpressure bounces across all clients.
	Rejected int
	// Reconnects counts redial attempts across all clients — the churn
	// the run absorbed.
	Reconnects int
	// CorruptFrames counts CRC-rejected frames detected by the *clients*
	// (server-side detections are in Snapshot.CorruptFrames).
	CorruptFrames int
	// Snapshot is the server's final metrics snapshot.
	Snapshot Snapshot
}

// Run executes a deployment on the live cluster runtime: one goroutine
// per end-system, a live server draining the shared scheduling queue,
// real concurrency end to end. It is the wall-clock counterpart of
// core.Simulation.Run — same deployment, same protocol, but arrival skew
// comes from goroutine and network timing instead of an event heap.
func Run(ctx context.Context, dep *core.Deployment, cfg RunnerConfig) (*RunnerResult, error) {
	if dep == nil {
		return nil, fmt.Errorf("cluster: nil deployment")
	}
	if cfg.StepsPerClient <= 0 {
		return nil, fmt.Errorf("cluster: runner needs positive StepsPerClient")
	}
	if cfg.Transport == "" {
		cfg.Transport = TransportPair
	}
	if cfg.GradTimeout == 0 {
		cfg.GradTimeout = 30 * time.Second
	}

	// One clock shared by the server and every client keeps SentAt and
	// ArrivedAt on the same axis, so staleness-ordered policies see
	// consistent timestamps.
	start := time.Now()
	now := func() time.Duration { return time.Since(start) }
	serverCfg := cfg.Cluster
	if serverCfg.Now == nil {
		serverCfg.Now = now
	}
	if serverCfg.BatchCoalesce == 0 {
		// The deployment-level knob is the default, so a config that
		// drives the simulation coalesces identically on the live path.
		serverCfg.BatchCoalesce = dep.Config.BatchCoalesce
	}
	if cfg.Checksum {
		serverCfg.Checksum = true
	}

	srv, err := NewServer(dep.Server, serverCfg)
	if err != nil {
		return nil, err
	}
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	if err := srv.Start(runCtx); err != nil {
		return nil, err
	}

	// Server-side fault schedules are minted once per client and reused
	// across reconnects, mirroring the client-side Faults contract.
	var serverScheds []simnet.FaultSchedule
	if cfg.ServerFaults != nil {
		serverScheds = make([]simnet.FaultSchedule, len(dep.Clients))
		for i := range serverScheds {
			serverScheds[i] = cfg.ServerFaults(i)
		}
	}
	serverWrap := func(i int, c transport.Conn) transport.Conn {
		if i >= 0 && i < len(serverScheds) && serverScheds[i] != nil {
			c = transport.NewFaultCarrier(c, serverScheds[i])
		}
		return c
	}

	dial, cleanup, err := dialers(srv, cfg.Transport, serverWrap)
	if err != nil {
		cancel()
		_ = srv.Shutdown(context.Background())
		return nil, err
	}
	defer cleanup()

	type outcome struct {
		idx int
		res *ClientResult
		err error
	}
	outcomes := make(chan outcome, len(dep.Clients))
	for i := range dep.Clients {
		i := i
		// The fault schedule is created once per client and survives
		// reconnects, so a seeded plan scores the client's whole run.
		var sched simnet.FaultSchedule
		if cfg.Faults != nil {
			sched = cfg.Faults(i)
		}
		clientDial := func() (transport.Conn, error) {
			c, err := dial(i)
			if err != nil {
				return nil, err
			}
			if sched != nil {
				c = transport.NewFaultCarrier(c, sched)
			}
			if cfg.WrapClient != nil {
				c = cfg.WrapClient(i, c)
			}
			if cfg.Checksum {
				transport.SetChecksum(c, true)
			}
			return c, nil
		}
		go func() {
			conn, err := clientDial()
			if err != nil {
				outcomes <- outcome{idx: i, err: fmt.Errorf("cluster: dial client %d: %w", i, err)}
				return
			}
			clientCfg := ClientConfig{
				Steps:       cfg.StepsPerClient,
				GradTimeout: cfg.GradTimeout,
				Now:         now,
				// Deterministic per-client seed so a seeded run's retry
				// trace replays exactly.
				BackoffSeed: uint64(i)*0x9e3779b97f4a7c15 + 1,
				// Per-client series; a nil registry yields a nil (no-op)
				// histogram, so this is free when telemetry is off.
				GradRTT: cfg.Cluster.Obs.Histogram(
					"stsl_client_grad_rtt_seconds", obs.Labels{"client": strconv.Itoa(i)}),
			}
			if cfg.Retry > 0 {
				clientCfg.Dial = clientDial
				clientCfg.MaxReconnects = cfg.Retry
				clientCfg.ReconnectBackoff = cfg.RetryBackoff
			}
			res, err := RunClient(runCtx, dep.Clients[i], conn, clientCfg)
			conn.Close()
			outcomes <- outcome{idx: i, res: res, err: err}
		}()
	}

	var errs []error
	result := &RunnerResult{StepsPerClient: make([]int, len(dep.Clients))}
	for range dep.Clients {
		o := <-outcomes
		if o.err != nil {
			errs = append(errs, fmt.Errorf("client %d: %w", o.idx, o.err))
		}
		if o.res != nil {
			result.StepsPerClient[o.idx] = o.res.Steps
			result.Rejected += o.res.Rejected
			result.Reconnects += o.res.Reconnects
			result.CorruptFrames += o.res.CorruptFrames
		}
	}
	// All client goroutines have returned, so the server either has n
	// finished sessions already or never will (a client that died before
	// its join registered cannot satisfy AwaitClients) — bound the wait
	// so Run reports the collected errors instead of hanging.
	awaitBudget := cfg.GradTimeout
	if len(errs) > 0 {
		awaitBudget = 2 * time.Second
	}
	awaitCtx, awaitCancel := context.WithTimeout(ctx, awaitBudget)
	err = srv.AwaitClients(awaitCtx, len(dep.Clients))
	awaitCancel()
	if err != nil && !(len(errs) > 0 && errors.Is(err, context.DeadlineExceeded)) {
		errs = append(errs, err)
	}
	if err := srv.Shutdown(context.Background()); err != nil {
		errs = append(errs, err)
	}
	result.WallDuration = time.Since(start)
	result.Snapshot = srv.Snapshot()
	result.ServerSteps = result.Snapshot.ServerSteps
	// The session layer owns no model state, so the loss comes from the
	// server's curve of the batches the worker served.
	result.FinalLoss = srv.FinalLoss()
	if len(errs) > 0 {
		return result, errors.Join(errs...)
	}
	return result, nil
}

// dialers builds a per-client dial function over the chosen transport —
// callable repeatedly, which is what lets a churned client reconnect to
// the same server. cleanup releases any listener. serverWrap decorates
// the server side of each new connection before Attach (fault injection
// on the server's receive path); for pair/pipe it sees the dialing
// client's index, for TCP the accept ordinal.
func dialers(srv *Server, tr Transport, serverWrap func(int, transport.Conn) transport.Conn) (func(i int) (transport.Conn, error), func(), error) {
	cleanup := func() {}
	switch tr {
	case TransportPair:
		return func(i int) (transport.Conn, error) {
			client, server := transport.NewPair(1)
			srv.Attach(serverWrap(i, server))
			return client, nil
		}, cleanup, nil
	case TransportPipe:
		return func(i int) (transport.Conn, error) {
			clientNC, serverNC := net.Pipe()
			srv.Attach(serverWrap(i, transport.NewTCPConn(serverNC)))
			return transport.NewTCPConn(clientNC), nil
		}, cleanup, nil
	case TransportTCP:
		lis, err := transport.Listen("127.0.0.1:0")
		if err != nil {
			return nil, cleanup, err
		}
		if srv.cfg.Obs != nil {
			lis.Instrument(transport.NewConnInstruments(srv.cfg.Obs))
		}
		cleanup = func() { lis.Close() }
		go func() {
			// A private accept loop instead of ServeListener so accepted
			// conns pass through serverWrap; cleanup (deferred by Run)
			// closes the listener and ends it.
			for i := 0; ; i++ {
				conn, err := lis.Accept()
				if err != nil {
					return
				}
				srv.Attach(serverWrap(i, conn))
			}
		}()
		return func(int) (transport.Conn, error) {
			return transport.Dial(lis.Addr())
		}, cleanup, nil
	default:
		return nil, cleanup, fmt.Errorf("cluster: unknown transport %q", tr)
	}
}
