package stsl_test

import (
	"context"
	"fmt"
	"log"
	"time"

	stsl "github.com/stsl/stsl"
)

// Two end-systems with private first blocks share one centralized
// server; raw images never leave the clients. The deployment trains on
// simulated links, one nearby client and one far away.
func Example_quickstart() {
	// 1. Local data at each end-system (synthetic CIFAR-10 stand-in).
	gen := stsl.SynthCIFAR{Height: 16, Width: 16, Classes: 4, Noise: 0.05}
	train, err := gen.GenerateBalanced(40, 1)
	if err != nil {
		log.Fatal(err)
	}
	test, err := gen.GenerateBalanced(20, 2)
	if err != nil {
		log.Fatal(err)
	}
	shards, err := stsl.PartitionDirichlet(train, 2, 0.5, stsl.NewRNG(3))
	if err != nil {
		log.Fatal(err)
	}

	// 2. The network, split after block L1 (cut=1).
	dep, err := stsl.NewDeployment(stsl.Config{
		Model: stsl.PaperCNNConfig{
			Height: 16, Width: 16, Filters: []int{8, 16}, Hidden: 32, Classes: 4,
		},
		Cut: 1, Clients: 2, Seed: 7, BatchSize: 16, LR: 0.05,
	}, shards)
	if err != nil {
		log.Fatal(err)
	}

	// 3. Simulated links: one nearby client, one far away.
	mkPath := func(d time.Duration, seed uint64) *stsl.Path {
		p, err := stsl.NewSymmetricPath(stsl.ConstantLatency{D: d}, 0, stsl.NewRNG(seed))
		if err != nil {
			log.Fatal(err)
		}
		return p
	}
	sim, err := stsl.NewSimulation(dep, stsl.SimConfig{
		Paths:             []*stsl.Path{mkPath(2*time.Millisecond, 10), mkPath(40*time.Millisecond, 11)},
		MaxStepsPerClient: 60,
	})
	if err != nil {
		log.Fatal(err)
	}

	// 4. Train and evaluate.
	res, err := sim.Run()
	if err != nil {
		log.Fatal(err)
	}
	mean, accs, err := dep.EvaluateMean(test)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("trained %d server batches in %v of virtual time\n",
		res.ServerSteps, res.VirtualDuration.Round(time.Millisecond))
	fmt.Printf("final training loss %.3f\n", res.FinalLoss)
	fmt.Printf("mean test accuracy  %.1f%% (per client: %.1f%%, %.1f%%)\n",
		mean*100, accs[0]*100, accs[1]*100)
	fmt.Printf("queue stats         %s\n", dep.Server.QueueMetrics)
	// Output:
	// trained 120 server batches in 4.8s of virtual time
	// final training loss 0.036
	// mean test accuracy  85.0% (per client: 86.2%, 83.8%)
	// queue stats         served=120 meanWait=0s maxOcc=1 imbalance=0.000 per-client[c0:60 c1:60]
}

// The paper's motivating scenario. Four hospitals hold privacy-regulated
// patient images with very different case mixes (strongly non-IID
// shards); none may export raw data. They jointly train one diagnostic
// CNN by spatio-temporal split learning, compared against the FedAvg
// alternative and the (forbidden) centralized pooling upper bound, and
// the example audits exactly what one hospital's uplink exposes.
func Example_hospitals() {
	const hospitals = 4
	model := stsl.PaperCNNConfig{
		Height: 16, Width: 16, Filters: []int{8, 16}, Hidden: 32, Classes: 4,
	}
	gen := stsl.SynthCIFAR{Height: 16, Width: 16, Classes: 4, Noise: 0.05}
	pool, err := gen.GenerateBalanced(60, 1)
	if err != nil {
		log.Fatal(err)
	}
	test, err := gen.GenerateBalanced(25, 2)
	if err != nil {
		log.Fatal(err)
	}
	// Strong label skew: each hospital sees a different disease mix.
	shards, err := stsl.PartitionDirichlet(pool, hospitals, 0.3, stsl.NewRNG(3))
	if err != nil {
		log.Fatal(err)
	}
	for i, s := range shards {
		fmt.Printf("hospital %d: %3d cases, class mix %v\n", i, s.Len(), s.ClassCounts())
	}

	// Forbidden upper bound: pool all data centrally.
	cent, err := stsl.TrainCentralized(stsl.TrainConfig{
		Model: model, Seed: 5, Epochs: 4, BatchSize: 16, LR: 0.05,
	}, pool)
	if err != nil {
		log.Fatal(err)
	}
	cm, err := stsl.EvaluateModel(cent.Model, test)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("centralized (pooled raw data, illegal here): %.1f%%\n", cm.Accuracy()*100)

	// FedAvg alternative: ship whole models every round.
	fed, err := stsl.TrainFedAvg(stsl.FedAvgConfig{
		Model: model, Seed: 5, Rounds: 4, BatchSize: 16, LR: 0.05,
	}, shards)
	if err != nil {
		log.Fatal(err)
	}
	cmFed, err := stsl.EvaluateModel(fed.Model, test)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("FedAvg (ships full models):                  %.1f%%\n", cmFed.Accuracy()*100)

	// Spatio-temporal split learning.
	dep, err := stsl.NewDeployment(stsl.Config{
		Model: model, Cut: 1, Clients: hospitals, Seed: 5, BatchSize: 16, LR: 0.05,
	}, shards)
	if err != nil {
		log.Fatal(err)
	}
	paths := make([]*stsl.Path, hospitals)
	for i := range paths {
		paths[i], err = stsl.NewSymmetricPath(
			stsl.UniformLatency{Lo: 5 * time.Millisecond, Hi: 30 * time.Millisecond}, 0,
			stsl.NewRNG(uint64(20+i)))
		if err != nil {
			log.Fatal(err)
		}
	}
	sim, err := stsl.NewSimulation(dep, stsl.SimConfig{Paths: paths, MaxStepsPerClient: 60})
	if err != nil {
		log.Fatal(err)
	}
	if _, err := sim.Run(); err != nil {
		log.Fatal(err)
	}
	mean, accs, err := dep.EvaluateMean(test)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("spatio-temporal split (ships activations):   %.1f%%\n", mean*100)
	for i, a := range accs {
		fmt.Printf("  hospital %d pipeline: %.1f%%\n", i, a*100)
	}

	// Privacy audit: what does hospital 0's uplink expose?
	cnn, err := stsl.BuildPaperCNN(model, stsl.NewRNG(5))
	if err != nil {
		log.Fatal(err)
	}
	audit, err := stsl.RunFig4(cnn, shards[0].Image(0), "")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("uplink privacy audit (edge correlation = recognisable detail):")
	for _, st := range audit.Stages {
		fmt.Printf("  %-10s detail leak %.3f, structure leak %.3f\n",
			st.Name, st.Leak.EdgeCorrelation, st.Leak.Correlation)
	}
	// Output:
	// hospital 0:   5 cases, class mix [1 3 0 1]
	// hospital 1:  57 cases, class mix [3 13 0 41]
	// hospital 2:  50 cases, class mix [3 27 2 18]
	// hospital 3: 128 cases, class mix [53 17 58 0]
	// centralized (pooled raw data, illegal here): 98.0%
	// FedAvg (ships full models):                  74.0%
	// spatio-temporal split (ships activations):   64.8%
	//   hospital 0 pipeline: 61.0%
	//   hospital 1 pipeline: 72.0%
	//   hospital 2 pipeline: 75.0%
	//   hospital 3 pipeline: 51.0%
	// uplink privacy audit (edge correlation = recognisable detail):
	//   original   detail leak 1.000, structure leak 1.000
	//   conv-l1    detail leak 0.235, structure leak 0.805
	//   l1         detail leak 0.138, structure leak 0.833
}

// The same deployment API on the live runtime: one goroutine per
// end-system over the wire protocol and a live scheduling queue, served
// first-come-first-served and then in synchronous rounds. Wall time, loss
// and service order depend on the host's scheduler, so only the batch
// counts are printed; the §II starvation itself is measured in virtual
// time by stsl-bench -exp queue.
func ExampleRunCluster() {
	model := stsl.PaperCNNConfig{
		Height: 16, Width: 16, Filters: []int{8, 16}, Hidden: 32, Classes: 4,
	}
	gen := stsl.SynthCIFAR{Height: 16, Width: 16, Classes: 4, Noise: 0.05}
	train, err := gen.GenerateBalanced(45, 1)
	if err != nil {
		log.Fatal(err)
	}
	shards, err := stsl.PartitionDirichlet(train, 3, 0.3, stsl.NewRNG(3))
	if err != nil {
		log.Fatal(err)
	}
	for _, policy := range []string{"fifo", "sync-rounds"} {
		dep, err := stsl.NewDeployment(stsl.Config{
			Model: model, Cut: 1, Clients: 3, Seed: 9,
			BatchSize: 16, LR: 0.05, QueuePolicy: policy,
		}, shards)
		if err != nil {
			log.Fatal(err)
		}
		res, err := stsl.RunCluster(context.Background(), dep, stsl.ClusterRunnerConfig{
			StepsPerClient: 6,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-12s server steps %d, per-client %v\n",
			policy, res.ServerSteps, res.StepsPerClient)
	}
	// Output:
	// fifo         server steps 18, per-client [6 6 6]
	// sync-rounds  server steps 18, per-client [6 6 6]
}
