// Package stsl is the public API of the spatio-temporal split learning
// library — a from-scratch Go reproduction of "Spatio-Temporal Split
// Learning" (Kim, Park, Jung, Yoo — DSN 2021).
//
// The paper's framework trains one deep network whose first hidden blocks
// live on M geo-distributed end-systems (each with private weights and
// private data) while a centralized server owns the remaining layers and a
// parameter-scheduling queue that absorbs arrival skew. Raw data never
// leaves an end-system; only first-block activations travel.
//
// The implementation lives in internal packages; this package re-exports
// the surface that its Example functions use, as aliases, so downstream
// code imports one path. Two runtimes drive the same deployment: the event-driven
// virtual-time simulation, and the live cluster runtime where every
// end-system is a real concurrent actor over the wire protocol.
//
//	deployment, _ := stsl.NewDeployment(stsl.Config{ ... }, shards)
//
//	// Virtual time — deterministic, simulated links:
//	sim, _ := stsl.NewSimulation(deployment, stsl.SimConfig{ ... })
//	result, _ := sim.Run()
//
//	// Real concurrency — one goroutine per end-system, live scheduling
//	// queue, in-memory / net.Pipe / TCP transports:
//	live, _ := stsl.RunCluster(ctx, deployment, stsl.ClusterRunnerConfig{
//		StepsPerClient: 100,
//	})
//	fmt.Println(live.Snapshot) // throughput, queue depth, staleness
//
// Config.BatchCoalesce enables server-side micro-batch coalescing: up to
// that many queued activations are stacked into one forward/backward pass
// and one optimiser step, amortising the server's hot path across clients.
// Both runtimes apply identical coalescing semantics.
//
// For separate OS processes, cmd/stsl-server and cmd/stsl-endsystem run
// the cluster protocol over real TCP.
//
// The Example functions (go test -run Example -v .) are runnable
// end-to-end programs with checked output; DESIGN.md has the
// architecture and experiment map.
package stsl

import (
	"github.com/stsl/stsl/internal/baseline"
	"github.com/stsl/stsl/internal/cluster"
	"github.com/stsl/stsl/internal/core"
	"github.com/stsl/stsl/internal/data"
	"github.com/stsl/stsl/internal/expt"
	"github.com/stsl/stsl/internal/mathx"
	"github.com/stsl/stsl/internal/nn"
	"github.com/stsl/stsl/internal/privacy"
	"github.com/stsl/stsl/internal/simnet"
)

// Split-learning deployment and its two runtimes.
type (
	// Config describes a spatio-temporal split-learning deployment.
	Config = core.Config
	// SimConfig parameterises the virtual-time simulation.
	SimConfig = core.SimConfig
	// ClusterRunnerConfig parameterises an in-process live run.
	ClusterRunnerConfig = cluster.RunnerConfig
)

var (
	// NewDeployment builds a deployment from a config and data shards.
	NewDeployment = core.NewDeployment
	// NewSimulation wires a deployment to simulated network paths.
	NewSimulation = core.NewSimulation
	// RunCluster executes a deployment on the live runtime in-process.
	RunCluster = cluster.Run
)

// PaperCNNConfig parameterises the paper's Fig-3 CNN.
type PaperCNNConfig = nn.PaperCNNConfig

// BuildPaperCNN constructs the Fig-3 CNN.
var BuildPaperCNN = nn.BuildPaperCNN

// SynthCIFAR generates the procedural CIFAR-10 stand-in.
type SynthCIFAR = data.SynthCIFAR

var (
	// PartitionIID shards a dataset uniformly across clients.
	PartitionIID = data.PartitionIID
	// PartitionDirichlet shards with label skew (non-IID).
	PartitionDirichlet = data.PartitionDirichlet
)

// Network simulation types.
type (
	// Path is a bidirectional client↔server network path.
	Path = simnet.Path
	// ConstantLatency is a fixed delay.
	ConstantLatency = simnet.Constant
	// UniformLatency draws uniformly from a range.
	UniformLatency = simnet.Uniform
)

// NewSymmetricPath builds a path with shared latency model.
var NewSymmetricPath = simnet.NewSymmetricPath

// Baselines.
type (
	// TrainConfig parameterises centralized training.
	TrainConfig = baseline.TrainConfig
	// FedAvgConfig parameterises the FedAvg baseline.
	FedAvgConfig = baseline.FedAvgConfig
)

var (
	// TrainCentralized trains the monolithic upper bound.
	TrainCentralized = baseline.TrainCentralized
	// TrainFedAvg runs federated averaging over shards.
	TrainFedAvg = baseline.TrainFedAvg
	// EvaluateModel evaluates a monolithic model.
	EvaluateModel = baseline.Evaluate
)

// Paper experiments.
var (
	// RunFig4 measures leakage through the first block of a model.
	RunFig4 = privacy.RunFig4
	// ScaleByName resolves "tiny", "small", "paper".
	ScaleByName = expt.ScaleByName
	// RunTableI reproduces Table I.
	RunTableI = expt.RunTableI
	// RunFig3Experiment audits the Fig-3 CNN.
	RunFig3Experiment = expt.RunFig3
)

// NewRNG seeds a deterministic generator.
var NewRNG = mathx.NewRNG
