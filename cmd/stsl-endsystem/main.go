// Command stsl-endsystem runs one end-system of the split-learning
// protocol over real TCP, as a live cluster client: it joins the server
// with a session handshake, holds the layers below the cut and its local
// (synthetic) data shard, sends first-block activations, applies the
// gradients that come back, resends on backpressure rejection, and bails
// out if the server goes silent past the gradient timeout. With -retry
// it survives churn: a lost connection is redialled, the session resumed
// by token (or re-joined after a server restart), and the in-flight
// batch resent. Raw images never leave the process.
//
// See cmd/stsl-server for a full invocation example.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"github.com/stsl/stsl/internal/cluster"
	"github.com/stsl/stsl/internal/core"
	"github.com/stsl/stsl/internal/data"
	"github.com/stsl/stsl/internal/expt"
	"github.com/stsl/stsl/internal/mathx"
	"github.com/stsl/stsl/internal/nn"
	"github.com/stsl/stsl/internal/opt"
	"github.com/stsl/stsl/internal/tensor"
	"github.com/stsl/stsl/internal/transport"
)

func main() {
	var (
		addr        = flag.String("addr", "127.0.0.1:9000", "server address")
		id          = flag.Int("id", 0, "end-system id (unique per client)")
		cut         = flag.Int("cut", 1, "split point (must match the server)")
		scale       = flag.String("scale", "small", "model scale: tiny|small|paper")
		seed        = flag.Uint64("seed", 1, "server weight seed")
		local       = flag.Uint64("local-seed", 0, "private lower-layer seed (0 = derive from id)")
		steps       = flag.Int("steps", 100, "batches to contribute")
		batch       = flag.Int("batch", 0, "batch size (0 = scale default)")
		lr          = flag.Float64("lr", 0.05, "learning rate")
		timeout     = flag.Duration("grad-timeout", time.Minute, "max wait for any gradient (0 = forever)")
		retry       = flag.Int("retry", 0, "reconnect attempts after a lost connection (0 = fail immediately); reconnects resume the session and resend the in-flight batch")
		retryBk     = flag.Duration("retry-backoff", 250*time.Millisecond, "pause before each reconnect attempt")
		dtName      = flag.String("dtype", "float64", "wire encoding of this end-system's activations: float64|float32 (float32 halves the payload bytes); the server answers in kind")
		cksum       = flag.Bool("checksum", false, "send CRC32C-checksummed wire frames (self-describing; a plain server interoperates)")
		poison      = flag.String("poison", "", "emulate a hostile/broken client: nan (upload NaN activations) or scale (norm-bomb uploads) — for exercising the server's -sanitize quarantine")
		poisonAfter = flag.Int("poison-after", 0, "clean activation uploads before poisoning starts")
		poisonScale = flag.Float64("poison-scale", 1e6, "multiplier for -poison scale")
	)
	flag.Parse()

	s, err := expt.ScaleByName(*scale)
	if err != nil {
		fatal(err)
	}
	if *batch == 0 {
		*batch = s.BatchSize
	}
	if *local == 0 {
		*local = *seed + uint64(*id)*104729 + 7
	}
	cnn, err := nn.BuildPaperCNN(s.Model, mathx.NewRNG(*local))
	if err != nil {
		fatal(err)
	}
	lower, _, err := core.Split(cnn, *cut)
	if err != nil {
		fatal(err)
	}
	optim, err := opt.NewSGD(opt.Config{LR: *lr})
	if err != nil {
		fatal(err)
	}
	cfg := s.Model.Defaults()
	gen := data.SynthCIFAR{Height: cfg.Height, Width: cfg.Width, Classes: cfg.Classes}
	// Each end-system draws a private shard keyed by its id — disjoint
	// local data, as in the paper's multi-hospital setting.
	shard, err := gen.Generate(s.TrainPerClass*cfg.Classes/2, *seed+uint64(*id)*31+11)
	if err != nil {
		fatal(err)
	}
	shard.Normalize()
	batcher, err := data.NewBatcher(shard, *batch, mathx.NewRNG(*local+1))
	if err != nil {
		fatal(err)
	}
	es, err := core.NewEndSystem(*id, lower, optim, batcher)
	if err != nil {
		fatal(err)
	}
	dtype, err := tensor.ParseDType(*dtName)
	if err != nil {
		fatal(err)
	}
	es.WireDType = dtype

	var mode transport.HostileMode
	switch *poison {
	case "":
		mode = transport.PoisonNone
	case "nan":
		mode = transport.PoisonNaN
	case "scale":
		mode = transport.PoisonScale
	default:
		fatal(fmt.Errorf("unknown -poison mode %q (want nan or scale)", *poison))
	}
	// dress wraps each dialed carrier with the poison emulation and the
	// checksum setting, so reconnects behave like the first connection.
	dress := func(c transport.Conn) transport.Conn {
		if mode != transport.PoisonNone {
			c = transport.NewHostileCarrier(c, mode, *poisonAfter, *poisonScale)
		}
		if *cksum {
			transport.SetChecksum(c, true)
		}
		return c
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	rawConn, err := transport.Dial(*addr)
	if err != nil {
		fatal(err)
	}
	conn := dress(rawConn)
	defer conn.Close()
	fmt.Printf("stsl-endsystem %d: connected to %s, cut=%d, %d steps\n", *id, *addr, *cut, *steps)
	clientCfg := cluster.ClientConfig{
		Steps: *steps, GradTimeout: *timeout,
	}
	if *retry > 0 {
		clientCfg.Dial = func() (transport.Conn, error) {
			c, err := transport.Dial(*addr)
			if err != nil {
				return nil, err
			}
			return dress(c), nil
		}
		clientCfg.MaxReconnects = *retry
		clientCfg.ReconnectBackoff = *retryBk
	}
	res, err := cluster.RunClient(ctx, es, conn, clientCfg)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("stsl-endsystem %d: done — %d batches over %d local epochs (%d backpressure resends, %d reconnects)\n",
		*id, res.Steps, res.Epochs+1, res.Rejected, res.Reconnects)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "stsl-endsystem:", err)
	os.Exit(1)
}
