// Command stsl-server runs the centralized server of the split-learning
// protocol over real TCP, on the live cluster runtime: sessions join via
// handshake, every arriving activation is admitted into one thread-safe
// scheduling queue with bounded backpressure (past -queue-cap a session
// parks until there is headroom), a single worker goroutine owns the
// model, stragglers are dropped after a configurable silence,
// and SIGINT triggers a graceful drain. It accepts the configured number
// of end-systems, trains until every client announces completion, then
// writes the learned server weights.
//
// The server is churn-tolerant: a client whose link drops may reconnect
// within -resume-grace and resume its session (same id, queued items,
// reply cache) instead of being evicted. With -checkpoint-dir it also
// checkpoints its own training state periodically and on shutdown, and
// -resume restores it — so a restarted server carries on from the last
// step while clients started with -retry re-handshake on their own.
//
// The server degrades gracefully under overload instead of collapsing:
// -max-sessions caps admitted sessions (a join beyond the cap is refused
// with a RetryAfter hint on the wire), -work-deadline sheds queued
// activations too stale to be worth serving, and -send-timeout evicts
// clients that stall reading their replies.
//
// With -admin-addr the server also exposes an admin HTTP listener:
// readiness on /healthz (200 while serving, 503 once stopped),
// Prometheus metrics on /metrics, a JSON status superset of
// the periodic -status-every log line on /statusz, the recent-event
// flight recorder on /trace, and net/http/pprof under /debug/pprof. The
// admin surface exposes operational internals, so bind it to loopback
// unless the network is trusted.
//
// Usage (server plus two end-systems on one machine):
//
//	stsl-server   -addr :9000 -clients 2 -cut 1 -checkpoint-dir /tmp/stsl -admin-addr 127.0.0.1:9090 &
//	stsl-endsystem -addr 127.0.0.1:9000 -id 0 -cut 1 -steps 100 -retry 10 &
//	stsl-endsystem -addr 127.0.0.1:9000 -id 1 -cut 1 -steps 100 -retry 10
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"github.com/stsl/stsl/internal/cluster"
	"github.com/stsl/stsl/internal/core"
	"github.com/stsl/stsl/internal/expt"
	"github.com/stsl/stsl/internal/mathx"
	"github.com/stsl/stsl/internal/nn"
	"github.com/stsl/stsl/internal/obs"
	"github.com/stsl/stsl/internal/opt"
	"github.com/stsl/stsl/internal/queue"
	"github.com/stsl/stsl/internal/transport"
)

func main() {
	var (
		addr         = flag.String("addr", ":9000", "listen address")
		clients      = flag.Int("clients", 1, "number of end-systems to await")
		cut          = flag.Int("cut", 1, "split point (must match the end-systems)")
		scale        = flag.String("scale", "small", "model scale: tiny|small|paper")
		seed         = flag.Uint64("seed", 1, "weight seed (must match the end-systems)")
		lr           = flag.Float64("lr", 0.05, "learning rate")
		policy       = flag.String("policy", "fifo", "queue policy: fifo|staleness|fair-rr")
		queueCap     = flag.Int("queue-cap", 64, "scheduling queue depth cap; a session parks at the cap until there is headroom (-1 = unbounded)")
		coalesce     = flag.Int("coalesce", 1, "micro-batch coalescing cap: stack up to this many queued activations per pass")
		straggler    = flag.Duration("straggler-timeout", 0, "drop silent clients after this long (0 = never)")
		maxSessions  = flag.Int("max-sessions", 0, "admission cap on concurrently live sessions; joins beyond it are refused with a RetryAfter hint (0 = unlimited)")
		workDeadline = flag.Duration("work-deadline", 0, "queued activations older than this are shed un-served and the client told to resend (0 = serve everything)")
		sendTimeout  = flag.Duration("send-timeout", 0, "per-reply write deadline; a client that stalls reading longer than this is evicted instead of wedging the worker (0 = block forever)")
		grace        = flag.Duration("resume-grace", 30*time.Second, "how long a disconnected client may reconnect and resume its session (0 = evict immediately)")
		ckptDir      = flag.String("checkpoint-dir", "", "directory for periodic server checkpoints (empty = no checkpointing)")
		ckptEvery    = flag.Int("checkpoint-every", 50, "server steps between checkpoints (with -checkpoint-dir)")
		resume       = flag.Bool("resume", false, "restore training state from -checkpoint-dir before serving (missing checkpoint = fresh start)")
		statusEvery  = flag.Duration("status-every", 5*time.Second, "periodic one-line status log interval (0 = off)")
		adminAddr    = flag.String("admin-addr", "", "admin HTTP listener: /metrics (Prometheus), /statusz (JSON), /trace, /debug/pprof. Serves operational internals — bind loopback (e.g. 127.0.0.1:9090) unless the network is trusted. Empty = off")
		weights      = flag.String("weights", "", "path to write learned server weights (optional)")
		checksum     = flag.Bool("checksum", false, "send CRC32C-checksummed wire frames (self-describing — plain peers interoperate; corrupted inbound frames are detected either way)")
		sanitize     = flag.Bool("sanitize", false, "screen inbound activations for NaN/Inf and norm outliers; clients that repeatedly send garbage are quarantined")
	)
	flag.Parse()
	if *resume && *ckptDir == "" {
		fatal(fmt.Errorf("-resume needs -checkpoint-dir"))
	}

	s, err := expt.ScaleByName(*scale)
	if err != nil {
		fatal(err)
	}
	template, err := nn.BuildPaperCNN(s.Model, mathx.NewRNG(*seed))
	if err != nil {
		fatal(err)
	}
	_, upper, err := core.Split(template, *cut)
	if err != nil {
		fatal(err)
	}
	optim, err := opt.NewSGD(opt.Config{LR: *lr})
	if err != nil {
		fatal(err)
	}
	pol, err := queue.NewPolicy(*policy)
	if err != nil {
		fatal(err)
	}
	coreSrv, err := core.NewServer(upper, optim, pol)
	if err != nil {
		fatal(err)
	}
	clusterCfg := cluster.Config{
		Checksum:         *checksum,
		Sanitize:         *sanitize,
		QueueCap:         *queueCap,
		StragglerTimeout: *straggler,
		BatchCoalesce:    *coalesce,
		ResumeGrace:      *grace,
		MaxSessions:      *maxSessions,
		WorkDeadline:     *workDeadline,
		SendTimeout:      *sendTimeout,
	}
	// Telemetry comes alive with the admin listener: a registry for
	// /metrics and a bounded trace ring for /trace. Without -admin-addr
	// the server runs the uninstrumented (pre-telemetry) hot path.
	var (
		reg    *obs.Registry
		tracer *obs.Tracer
	)
	if *adminAddr != "" {
		reg = obs.NewRegistry()
		tracer = obs.NewTracer(obs.DefaultTraceCap)
		clusterCfg.Obs = reg
		clusterCfg.Tracer = tracer
	}
	if *ckptDir != "" {
		if err := os.MkdirAll(*ckptDir, 0o755); err != nil {
			fatal(err)
		}
		ckptPath := filepath.Join(*ckptDir, "server.ckpt")
		clusterCfg.Checkpoint = cluster.FileCheckpointer(ckptPath)
		clusterCfg.CheckpointEvery = *ckptEvery
		if *resume {
			steps, restored, err := cluster.RestoreFromFile(ckptPath, coreSrv)
			if err != nil {
				fatal(err)
			}
			if restored {
				fmt.Printf("stsl-server: resumed from %s at step %d\n", ckptPath, steps)
			} else {
				fmt.Printf("stsl-server: no checkpoint at %s — fresh start\n", ckptPath)
			}
		}
	}
	srv, err := cluster.NewServer(coreSrv, clusterCfg)
	if err != nil {
		fatal(err)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := srv.Start(ctx); err != nil {
		fatal(err)
	}

	lis, err := transport.Listen(*addr)
	if err != nil {
		fatal(err)
	}
	defer lis.Close()
	if reg != nil {
		lis.Instrument(transport.NewConnInstruments(reg))
		admin, err := obs.StartAdmin(*adminAddr, obs.AdminConfig{
			Registry: reg,
			Tracer:   tracer,
			Healthz:  srv.HealthzFunc(),
			Statusz: func() any {
				return struct {
					cluster.Snapshot
					Queue string `json:"queue"`
				}{srv.Snapshot(), coreSrv.QueueMetrics.String()}
			},
		})
		if err != nil {
			fatal(err)
		}
		defer admin.Close()
		fmt.Printf("stsl-server: admin listener on http://%s (/healthz /metrics /statusz /trace /debug/pprof)\n", admin.Addr())
	}
	fmt.Printf("stsl-server: listening on %s for %d end-system(s), cut=%d policy=%s cap=%d coalesce=%d\n",
		lis.Addr(), *clients, *cut, *policy, *queueCap, *coalesce)
	go srv.ServeListener(lis)

	// The ticker stops when training ends, not at process exit, so late
	// snapshots cannot interleave with the final report.
	tickCtx, tickStop := context.WithCancel(ctx)
	if *statusEvery > 0 {
		go func() {
			t := time.NewTicker(*statusEvery)
			defer t.Stop()
			for {
				select {
				case <-tickCtx.Done():
					return
				case <-t.C:
					fmt.Printf("stsl-server: %s\n", srv.Snapshot())
				}
			}
		}()
	}

	err = srv.AwaitClients(ctx, *clients)
	tickStop()
	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if sderr := srv.Shutdown(shutCtx); sderr != nil {
		fmt.Fprintln(os.Stderr, "stsl-server:", sderr)
	}
	exitCode := 0
	if err != nil {
		if ctx.Err() != nil {
			fmt.Println("stsl-server: interrupted — shutting down gracefully")
		} else {
			// Still print the summary and save weights below — partial
			// training is worth keeping — but fail the process so
			// scripts gating on exit status see the broken run.
			fmt.Fprintln(os.Stderr, "stsl-server: session errors:", err)
			exitCode = 1
		}
	}

	snap := srv.Snapshot()
	fmt.Printf("stsl-server: training complete — %s\n", snap)
	fmt.Printf("stsl-server: queue %s\n", coreSrv.QueueMetrics)

	if *weights != "" {
		f, err := os.Create(*weights)
		if err != nil {
			fatal(err)
		}
		if err := coreSrv.Stack.SaveWeights(f); err != nil {
			f.Close()
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("stsl-server: weights written to %s\n", *weights)
	}
	os.Exit(exitCode)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "stsl-server:", err)
	os.Exit(1)
}
