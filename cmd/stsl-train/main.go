// Command stsl-train trains one spatio-temporal split-learning deployment
// on the synthetic workload and reports accuracy, loss, and queue
// statistics.
//
// Usage:
//
//	stsl-train -cut 1 -clients 4 -steps 200 -policy fifo
//	stsl-train -cut 3 -alpha 0.2 -policy sync-rounds -far-latency 150ms
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"github.com/stsl/stsl/internal/core"
	"github.com/stsl/stsl/internal/data"
	"github.com/stsl/stsl/internal/expt"
	"github.com/stsl/stsl/internal/mathx"
	"github.com/stsl/stsl/internal/simnet"
)

func main() {
	var (
		scale      = flag.String("scale", "small", "model/data scale: tiny|small|paper")
		cut        = flag.Int("cut", 1, "split point (0 = all layers at server)")
		clients    = flag.Int("clients", 4, "number of end-systems")
		steps      = flag.Int("steps", 0, "batches per client (0 = scale default)")
		batch      = flag.Int("batch", 0, "batch size (0 = scale default)")
		lr         = flag.Float64("lr", 0, "learning rate (0 = scale default)")
		alpha      = flag.Float64("alpha", 0, "Dirichlet non-IID alpha (0 = scale default)")
		policy     = flag.String("policy", "fifo", "queue policy: fifo|staleness|fair-rr|sync-rounds")
		seed       = flag.Uint64("seed", 1, "seed")
		farLatency = flag.Duration("far-latency", 0, "latency of client 0 (0 = same as others)")
		latency    = flag.Duration("latency", time.Millisecond, "latency of the other clients")
	)
	flag.Parse()

	s, err := expt.ScaleByName(*scale)
	if err != nil {
		fatal(err)
	}
	if *steps == 0 {
		*steps = s.StepsPerClient
	}
	if *batch == 0 {
		*batch = s.BatchSize
	}
	if *lr == 0 {
		*lr = s.LR
	}
	if *alpha == 0 {
		*alpha = s.Alpha
	}

	cfg := s.Model.Defaults()
	gen := data.SynthCIFAR{Height: cfg.Height, Width: cfg.Width, Classes: cfg.Classes}
	train, err := gen.GenerateBalanced(s.TrainPerClass, *seed)
	if err != nil {
		fatal(err)
	}
	test, err := gen.GenerateBalanced(s.TestPerClass, *seed+1)
	if err != nil {
		fatal(err)
	}
	mn, sd := train.Normalize()
	test.ApplyNormalization(mn, sd)
	shards, err := data.PartitionDirichlet(train, *clients, *alpha, mathx.NewRNG(*seed+2))
	if err != nil {
		fatal(err)
	}
	fmt.Printf("training: cut=%d clients=%d steps/client=%d batch=%d lr=%v policy=%s\n",
		*cut, *clients, *steps, *batch, *lr, *policy)
	fmt.Printf("data: %d train / %d test, non-IID skew %.3f\n",
		train.Len(), test.Len(), data.SkewStat(train, shards))

	dep, err := core.NewDeployment(core.Config{
		Model: s.Model, Cut: *cut, Clients: *clients, Seed: *seed,
		BatchSize: *batch, LR: *lr, QueuePolicy: *policy,
	}, shards)
	if err != nil {
		fatal(err)
	}
	paths := make([]*simnet.Path, *clients)
	for i := range paths {
		d := *latency
		if i == 0 && *farLatency > 0 {
			d = *farLatency
		}
		paths[i], err = simnet.NewSymmetricPath(simnet.Constant{D: d}, 0, mathx.NewRNG(*seed+uint64(i)*11))
		if err != nil {
			fatal(err)
		}
	}
	sim, err := core.NewSimulation(dep, core.SimConfig{
		Paths:             paths,
		MaxStepsPerClient: *steps,
		ServerProcTime:    time.Millisecond,
	})
	if err != nil {
		fatal(err)
	}
	start := time.Now()
	res, err := sim.Run()
	if err != nil {
		fatal(err)
	}
	mean, accs, err := dep.EvaluateMean(test)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("\nwall time        %v\n", time.Since(start).Round(time.Millisecond))
	fmt.Printf("virtual time     %v\n", res.VirtualDuration.Round(time.Millisecond))
	fmt.Printf("server batches   %d\n", res.ServerSteps)
	fmt.Printf("final loss       %.4f\n", res.FinalLoss)
	fmt.Printf("queue            %s\n", dep.Server.QueueMetrics)
	fmt.Printf("mean accuracy    %.2f%%\n", mean*100)
	for i, a := range accs {
		fmt.Printf("  client %d pipeline accuracy %.2f%% (contributed %d steps)\n",
			i, a*100, res.StepsPerClient[i])
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "stsl-train:", err)
	os.Exit(1)
}
