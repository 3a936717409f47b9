// Command stsl-load is an open-loop load generator for the cluster
// server: it materialises a seeded arrival trace (Poisson, diurnal, or
// flash-crowd — see internal/loadgen), fires one short-lived end-system
// session per arrival regardless of how the previous ones are faring,
// and reports the latency distribution (p50/p95/p99), the refusal rate,
// and the error count at the end. Open-loop is the honest way to measure
// an overloaded server — a closed-loop client slows down with its victim
// and understates the damage (coordinated omission).
//
// Each session joins with a distinct client id, contributes -steps
// batches, and leaves. A refusal (the session cap) terminates the
// session and counts toward the refusal rate; with -retry > 0 the client
// instead honours the server's RetryAfter hint, backs off with
// decorrelated jitter, and rejoins — the refusal still counts, the
// session may still complete.
//
// Exit status: 0 on success, 1 on a hard failure (bad flags, no server),
// 2 when a configured SLO gate (-slo-p95, -slo-refusals) is violated —
// so CI can assert "the server stayed inside its envelope under this
// trace" with a one-line invocation.
//
// Example (against a running stsl-server on :9000):
//
//	stsl-load -addr 127.0.0.1:9000 -shape flash-crowd -rate 2 -spike-x 10 \
//	          -duration 10s -steps 2 -slo-p95 2s -slo-refusals 0.5
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"github.com/stsl/stsl/internal/cluster"
	"github.com/stsl/stsl/internal/core"
	"github.com/stsl/stsl/internal/data"
	"github.com/stsl/stsl/internal/expt"
	"github.com/stsl/stsl/internal/loadgen"
	"github.com/stsl/stsl/internal/mathx"
	"github.com/stsl/stsl/internal/nn"
	"github.com/stsl/stsl/internal/obs"
	"github.com/stsl/stsl/internal/opt"
	"github.com/stsl/stsl/internal/tensor"
	"github.com/stsl/stsl/internal/transport"
)

func main() {
	var (
		addr     = flag.String("addr", "127.0.0.1:9000", "server address")
		shape    = flag.String("shape", "poisson", "arrival trace shape: poisson|diurnal|flash-crowd")
		rate     = flag.Float64("rate", 2, "base arrival rate in sessions/second (diurnal: peak; flash-crowd: off-spike base)")
		duration = flag.Duration("duration", 10*time.Second, "trace horizon")
		seed     = flag.Uint64("seed", 1, "trace seed — the same seed replays the same arrival schedule")
		spikeAt  = flag.Duration("spike-at", 0, "flash-crowd spike start (0 = duration/3)")
		spikeFor = flag.Duration("spike-for", 0, "flash-crowd spike length (0 = duration/10)")
		spikeX   = flag.Float64("spike-x", 10, "flash-crowd rate multiplier during the spike")
		period   = flag.Duration("period", 0, "diurnal cycle length (0 = duration)")
		floor    = flag.Float64("floor", 0.2, "diurnal trough as a fraction of the peak rate")
		steps    = flag.Int("steps", 1, "batches each session contributes")
		cut      = flag.Int("cut", 1, "split point (must match the server)")
		scale    = flag.String("scale", "small", "model scale: tiny|small|paper (must match the server)")
		wseed    = flag.Uint64("weight-seed", 1, "server weight seed (must match the server)")
		lr       = flag.Float64("lr", 0.05, "learning rate")
		dtName   = flag.String("dtype", "float64", "wire encoding of each end-system's activations: float64|float32; the server answers in kind")
		idBase   = flag.Int("id-base", 1000, "first client id; arrival i uses id-base+i")
		timeout  = flag.Duration("grad-timeout", 30*time.Second, "per-session hard wait bound")
		retry    = flag.Int("retry", 0, "reconnect budget per session; also enables refusal retries with jittered backoff (0 = one-shot sessions)")
		sloP95   = flag.Duration("slo-p95", 0, "fail (exit 2) if the session p95 exceeds this (0 = no gate)")
		sloRef   = flag.Float64("slo-refusals", -1, "fail (exit 2) if refused sessions / arrivals exceeds this fraction (negative = no gate)")
		jsonOut  = flag.Bool("json", false, "emit the report as JSON instead of text")
	)
	flag.Parse()

	shp, err := loadgen.ParseShape(*shape)
	if err != nil {
		fatal(err)
	}
	arrivals, err := loadgen.Arrivals(loadgen.Config{
		Shape: shp, Rate: *rate, Duration: *duration, Seed: *seed,
		Period: *period, Floor: *floor,
		SpikeAt: *spikeAt, SpikeFor: *spikeFor, SpikeX: *spikeX,
	})
	if err != nil {
		fatal(err)
	}
	sc, err := expt.ScaleByName(*scale)
	if err != nil {
		fatal(err)
	}
	dtype, err := tensor.ParseDType(*dtName)
	if err != nil {
		fatal(err)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	fmt.Printf("stsl-load: %s trace, %d arrivals over %v against %s (steps=%d retry=%d seed=%d)\n",
		shp, len(arrivals), *duration, *addr, *steps, *retry, *seed)

	var (
		sessLat            = new(obs.Histogram) // dial → done, completed sessions only
		completed, refused atomic.Int64
		bounces, failures  atomic.Int64
		firstErr           atomic.Value
		wg                 sync.WaitGroup
	)
	start := time.Now()
	for i, at := range arrivals {
		select {
		case <-time.After(time.Until(start.Add(at))):
		case <-ctx.Done():
		}
		if ctx.Err() != nil {
			break
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			began := time.Now()
			err := runSession(ctx, sessionConfig{
				addr: *addr, id: *idBase + i, cut: *cut, scale: sc, seed: *wseed,
				lr: *lr, dtype: dtype, steps: *steps, timeout: *timeout, retry: *retry,
				backoffSeed: *seed + uint64(i)*0x9e3779b97f4a7c15 + 1,
			}, &bounces)
			switch {
			case err == nil:
				completed.Add(1)
				sessLat.ObserveSince(began)
			case errors.Is(err, cluster.ErrRetryLater):
				refused.Add(1)
			case ctx.Err() != nil:
				// Interrupted mid-session; not the server's fault.
			default:
				failures.Add(1)
				firstErr.CompareAndSwap(nil, err)
			}
		}(i)
	}
	wg.Wait()

	rep := report{
		Shape:    string(shp),
		Rate:     *rate,
		Duration: duration.String(),
		Arrivals: len(arrivals),
		Complete: int(completed.Load()),
		Refused:  int(refused.Load()),
		Bounces:  int(bounces.Load()),
		Failures: int(failures.Load()),
		P50ms:    1000 * sessLat.Quantile(0.50),
		P95ms:    1000 * sessLat.Quantile(0.95),
		P99ms:    1000 * sessLat.Quantile(0.99),
	}
	if rep.Arrivals > 0 {
		rep.RefusalRate = float64(rep.Refused) / float64(rep.Arrivals)
	}
	if e, ok := firstErr.Load().(error); ok && e != nil {
		rep.FirstError = e.Error()
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			fatal(err)
		}
	} else {
		fmt.Printf("stsl-load: %d/%d complete, %d refused (%.1f%%), %d refusal waits, %d failures\n",
			rep.Complete, rep.Arrivals, rep.Refused, 100*rep.RefusalRate, rep.Bounces, rep.Failures)
		fmt.Printf("stsl-load: session latency p50=%.1fms p95=%.1fms p99=%.1fms\n",
			rep.P50ms, rep.P95ms, rep.P99ms)
		if rep.FirstError != "" {
			fmt.Printf("stsl-load: first failure: %s\n", rep.FirstError)
		}
	}

	// SLO gates: violated gates exit 2 so CI can tell "server broke its
	// envelope" apart from "load generator broke".
	bad := false
	if *sloP95 > 0 && time.Duration(rep.P95ms*float64(time.Millisecond)) > *sloP95 {
		fmt.Fprintf(os.Stderr, "stsl-load: SLO violated: p95 %.1fms > %v\n", rep.P95ms, *sloP95)
		bad = true
	}
	if *sloRef >= 0 && rep.RefusalRate > *sloRef {
		fmt.Fprintf(os.Stderr, "stsl-load: SLO violated: refusal rate %.3f > %.3f\n", rep.RefusalRate, *sloRef)
		bad = true
	}
	if bad {
		os.Exit(2)
	}
}

// report is the run summary, shaped for both the text lines and -json.
type report struct {
	Shape       string  `json:"shape"`
	Rate        float64 `json:"rate"`
	Duration    string  `json:"duration"`
	Arrivals    int     `json:"arrivals"`
	Complete    int     `json:"complete"`
	Refused     int     `json:"refused"`
	Bounces     int     `json:"refusal_waits"`
	Failures    int     `json:"failures"`
	RefusalRate float64 `json:"refusal_rate"`
	P50ms       float64 `json:"p50_ms"`
	P95ms       float64 `json:"p95_ms"`
	P99ms       float64 `json:"p99_ms"`
	FirstError  string  `json:"first_error,omitempty"`
}

type sessionConfig struct {
	addr        string
	id, cut     int
	scale       expt.Scale
	seed        uint64
	lr          float64
	dtype       tensor.DType
	steps       int
	timeout     time.Duration
	retry       int
	backoffSeed uint64
}

// runSession builds one throwaway end-system and drives it through a
// full join → train → done session. bounces accumulates refusal waits
// the client sat out before eventually getting in (only with retry).
func runSession(ctx context.Context, sc sessionConfig, bounces *atomic.Int64) error {
	local := sc.seed + uint64(sc.id)*104729 + 7
	cnn, err := nn.BuildPaperCNN(sc.scale.Model, mathx.NewRNG(local))
	if err != nil {
		return err
	}
	lower, _, err := core.Split(cnn, sc.cut)
	if err != nil {
		return err
	}
	optim, err := opt.NewSGD(opt.Config{LR: sc.lr})
	if err != nil {
		return err
	}
	mcfg := sc.scale.Model.Defaults()
	gen := data.SynthCIFAR{Height: mcfg.Height, Width: mcfg.Width, Classes: mcfg.Classes}
	// A small private shard — enough for a handful of batches; the load
	// generator measures the control plane, not the learning curve.
	shard, err := gen.Generate(max(sc.scale.BatchSize*sc.steps, mcfg.Classes), sc.seed+uint64(sc.id)*31+11)
	if err != nil {
		return err
	}
	shard.Normalize()
	batcher, err := data.NewBatcher(shard, sc.scale.BatchSize, mathx.NewRNG(local+1))
	if err != nil {
		return err
	}
	es, err := core.NewEndSystem(sc.id, lower, optim, batcher)
	if err != nil {
		return err
	}
	es.WireDType = sc.dtype

	conn, err := transport.Dial(sc.addr)
	if err != nil {
		return err
	}
	defer conn.Close()
	ccfg := cluster.ClientConfig{
		Steps: sc.steps, GradTimeout: sc.timeout, BackoffSeed: sc.backoffSeed,
	}
	if sc.retry > 0 {
		ccfg.Dial = func() (transport.Conn, error) { return transport.Dial(sc.addr) }
		ccfg.MaxReconnects = sc.retry
	}
	res, err := cluster.RunClient(ctx, es, conn, ccfg)
	if res != nil {
		bounces.Add(int64(res.Refused))
	}
	return err
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "stsl-load:", err)
	os.Exit(1)
}
