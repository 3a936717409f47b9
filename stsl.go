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
// the user-facing surface as type aliases so downstream code imports one
// path. Two runtimes drive the same deployment: the event-driven
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
// Config.BatchCoalesce (and ClusterConfig.BatchCoalesce on the live
// server) enables server-side micro-batch coalescing: up to that many
// queued activations are stacked into one forward/backward pass and one
// optimiser step, amortising the server's hot path across clients. Both
// runtimes apply identical coalescing semantics.
//
// For separate OS processes, cmd/stsl-server and cmd/stsl-endsystem run
// the cluster protocol over real TCP.
//
// See examples/ for runnable end-to-end programs and DESIGN.md for the
// architecture and experiment map.
package stsl

import (
	"github.com/stsl/stsl/internal/baseline"
	"github.com/stsl/stsl/internal/cluster"
	"github.com/stsl/stsl/internal/compress"
	"github.com/stsl/stsl/internal/core"
	"github.com/stsl/stsl/internal/data"
	"github.com/stsl/stsl/internal/expt"
	"github.com/stsl/stsl/internal/mathx"
	"github.com/stsl/stsl/internal/nn"
	"github.com/stsl/stsl/internal/obs"
	"github.com/stsl/stsl/internal/privacy"
	"github.com/stsl/stsl/internal/queue"
	"github.com/stsl/stsl/internal/simnet"
	"github.com/stsl/stsl/internal/tensor"
	"github.com/stsl/stsl/internal/transport"
)

// Core split-learning types.
type (
	// Config describes a spatio-temporal split-learning deployment.
	Config = core.Config
	// Deployment is a wired system of M end-systems plus the server.
	Deployment = core.Deployment
	// EndSystem is one client: private lower layers + local data.
	EndSystem = core.EndSystem
	// Server is the centralized upper stack with the scheduling queue.
	Server = core.Server
	// SimConfig parameterises the virtual-time simulation.
	SimConfig = core.SimConfig
	// Simulation drives a deployment over simulated links.
	Simulation = core.Simulation
	// SimResult summarises a simulation run.
	SimResult = core.SimResult
)

// U-shaped (no label sharing) variant types.
type (
	// UShapedConfig parameterises the label-private variant.
	UShapedConfig = core.UShapedConfig
	// UShapedDeployment wires U-shaped clients to a middle-only server.
	UShapedDeployment = core.UShapedDeployment
)

// Deployment and simulation constructors.
var (
	// NewDeployment builds a deployment from a config and data shards.
	NewDeployment = core.NewDeployment
	// NewUShaped builds the U-shaped (no-label-sharing) variant.
	NewUShaped = core.NewUShaped
	// SplitModelU cuts a CNN into lower/middle/head stacks.
	SplitModelU = core.SplitU
	// NewSimulation wires a deployment to simulated network paths.
	NewSimulation = core.NewSimulation
	// SplitModel cuts a built CNN into client and server stacks.
	SplitModel = core.Split
)

// Model types.
type (
	// PaperCNNConfig parameterises the paper's Fig-3 CNN.
	PaperCNNConfig = nn.PaperCNNConfig
	// PaperCNN is the built Fig-3 network with cut-point metadata.
	PaperCNN = nn.PaperCNN
	// Layer is one differentiable network stage.
	Layer = nn.Layer
	// Sequential chains layers.
	Sequential = nn.Sequential
)

// BuildPaperCNN constructs the Fig-3 CNN.
var BuildPaperCNN = nn.BuildPaperCNN

// Data types.
type (
	// Dataset is a labelled image set.
	Dataset = data.Dataset
	// SynthCIFAR generates the procedural CIFAR-10 stand-in.
	SynthCIFAR = data.SynthCIFAR
)

// Data helpers.
var (
	// DefaultSynthCIFAR returns the CIFAR-10-geometry generator.
	DefaultSynthCIFAR = data.DefaultSynthCIFAR
	// LoadCIFAR10Dir loads the real CIFAR-10 binary distribution.
	LoadCIFAR10Dir = data.LoadCIFAR10Dir
	// PartitionIID shards a dataset uniformly across clients.
	PartitionIID = data.PartitionIID
	// PartitionDirichlet shards with label skew (non-IID).
	PartitionDirichlet = data.PartitionDirichlet
)

// Network simulation types.
type (
	// LatencyModel samples link delays.
	LatencyModel = simnet.LatencyModel
	// ConstantLatency is a fixed delay.
	ConstantLatency = simnet.Constant
	// UniformLatency draws uniformly from a range.
	UniformLatency = simnet.Uniform
	// LogNormalLatency is a heavy-tailed WAN model.
	LogNormalLatency = simnet.LogNormal
	// Path is a bidirectional client↔server network path.
	Path = simnet.Path
)

// NewSymmetricPath builds a path with shared latency model.
var NewSymmetricPath = simnet.NewSymmetricPath

// Fault injection for chaos testing live deployments.
type (
	// FaultPlan parameterises a seeded deterministic fault schedule.
	FaultPlan = simnet.FaultPlan
	// FaultSchedule decides which faults a carrier injects.
	FaultSchedule = simnet.FaultSchedule
	// FaultCarrier wraps any connection with fault injection.
	FaultCarrier = transport.FaultCarrier
)

var (
	// NewFaults builds the standard seeded fault schedule.
	NewFaults = simnet.NewFaults
	// NewFaultCarrier wraps a connection in a fault schedule.
	NewFaultCarrier = transport.NewFaultCarrier
)

// Transport types for real deployments.
type (
	// Conn is a bidirectional message channel.
	Conn = transport.Conn
	// Message is one protocol datagram.
	Message = transport.Message
)

// Transport constructors.
var (
	// NewConnPair returns in-memory connection endpoints.
	NewConnPair = transport.NewPair
	// Dial connects to a TCP server endpoint.
	Dial = transport.Dial
	// Listen opens a TCP listener.
	Listen = transport.Listen
)

// Queue scheduling types.
type (
	// QueuePolicy is a scheduling discipline.
	QueuePolicy = queue.Policy
	// QueueMetrics records service statistics.
	QueueMetrics = queue.Metrics
	// SafeQueue wraps any policy for concurrent producers/consumers.
	SafeQueue = queue.Safe
)

// Queue constructors.
var (
	// NewQueuePolicy constructs "fifo", "staleness" or "fair-rr" policies.
	NewQueuePolicy = queue.NewPolicy
	// NewSafeQueue wraps a policy for concurrent use.
	NewSafeQueue = queue.NewSafe
)

// Live cluster runtime types (real concurrency, wire protocol).
type (
	// ClusterConfig holds the live server's knobs: queue cap, overflow
	// policy (park/reject), straggler timeout, micro-batch coalescing.
	ClusterConfig = cluster.Config
	// ClusterServer is the live centralized server.
	ClusterServer = cluster.Server
	// ClusterClientConfig parameterises one live end-system actor.
	ClusterClientConfig = cluster.ClientConfig
	// ClusterRunnerConfig parameterises an in-process live run.
	ClusterRunnerConfig = cluster.RunnerConfig
	// ClusterResult summarises a live run (compare core.SimResult).
	ClusterResult = cluster.RunnerResult
	// ClusterSnapshot is a live metrics snapshot.
	ClusterSnapshot = cluster.Snapshot
	// ClusterTransport selects pair | pipe | tcp carriers.
	ClusterTransport = cluster.Transport
)

// Live cluster entry points.
var (
	// NewClusterServer wraps a core server for live concurrent serving.
	NewClusterServer = cluster.NewServer
	// RunClusterClient drives one end-system over a live connection.
	RunClusterClient = cluster.RunClient
	// RunCluster executes a deployment on the live runtime in-process.
	RunCluster = cluster.Run
)

// Observability: attach an ObsRegistry/ObsTracer to ClusterConfig.Obs /
// ClusterConfig.Tracer and the runtime publishes queue, worker, session,
// transport, and training metrics; StartObsAdmin serves them over HTTP
// (/metrics, /statusz, /trace, /debug/pprof — bind loopback).
type (
	// ObsRegistry is a named-metric registry (get-or-create semantics).
	ObsRegistry = obs.Registry
	// ObsLabels tags a metric series, e.g. ObsLabels{"policy": "fifo"}.
	ObsLabels = obs.Labels
	// ObsCounter is a monotone atomic counter.
	ObsCounter = obs.Counter
	// ObsGauge is an atomic float64 gauge.
	ObsGauge = obs.Gauge
	// ObsHistogram is a log-bucketed latency histogram with quantiles.
	ObsHistogram = obs.Histogram
	// ObsTracer is a bounded in-memory event ring (flight recorder).
	ObsTracer = obs.Tracer
	// ObsAdminConfig configures the admin HTTP listener.
	ObsAdminConfig = obs.AdminConfig
	// ObsAdminServer is a running admin listener.
	ObsAdminServer = obs.AdminServer
)

// Observability entry points.
var (
	// NewObsRegistry creates an empty metric registry.
	NewObsRegistry = obs.NewRegistry
	// NewObsTracer creates a bounded trace ring (obs.DefaultTraceCap
	// is a sensible capacity).
	NewObsTracer = obs.NewTracer
	// StartObsAdmin serves /metrics, /statusz, /trace and pprof on addr.
	StartObsAdmin = obs.StartAdmin
)

// Baselines.
type (
	// TrainConfig parameterises centralized training.
	TrainConfig = baseline.TrainConfig
	// FedAvgConfig parameterises the FedAvg baseline.
	FedAvgConfig = baseline.FedAvgConfig
)

// Baseline trainers.
var (
	// TrainCentralized trains the monolithic upper bound.
	TrainCentralized = baseline.TrainCentralized
	// TrainFedAvg runs federated averaging over shards.
	TrainFedAvg = baseline.TrainFedAvg
	// EvaluateModel evaluates a monolithic model.
	EvaluateModel = baseline.Evaluate
)

// Privacy (Fig 4) helpers.
type (
	// LeakReport aggregates image-leakage metrics.
	LeakReport = privacy.LeakReport
	// AttackConfig parameterises the reconstruction attack.
	AttackConfig = privacy.AttackConfig
)

// Privacy entry points.
var (
	// RunFig4 measures leakage through the first block of a model.
	RunFig4 = privacy.RunFig4
	// ReconstructionAttack mounts the trained-decoder attack.
	ReconstructionAttack = privacy.ReconstructionAttack
	// SaveImagePNG writes a tensor as a PNG image.
	SaveImagePNG = privacy.SaveImagePNG
)

// Experiments (tables and figures).
type (
	// Scale trades experiment fidelity for runtime.
	Scale = expt.Scale
)

// Experiment runners; each reproduces one paper artifact.
var (
	// ScaleByName resolves "tiny", "small", "paper".
	ScaleByName = expt.ScaleByName
	// RunTableI reproduces Table I.
	RunTableI = expt.RunTableI
	// RunFig1Experiment reproduces Fig 1.
	RunFig1Experiment = expt.RunFig1
	// RunFig2Experiment reproduces Fig 2.
	RunFig2Experiment = expt.RunFig2
	// RunFig3Experiment audits the Fig-3 CNN.
	RunFig3Experiment = expt.RunFig3
	// RunFig4Experiment reproduces Fig 4 with aggregate metrics.
	RunFig4Experiment = expt.RunFig4
	// RunQueueAblation compares scheduling policies (§II).
	RunQueueAblation = expt.RunQueueAblation
	// RunCutSweep maps the accuracy/privacy tradeoff surface.
	RunCutSweep = expt.RunCutSweep
	// RunQuantizeAblation measures the uplink-compression tradeoff.
	RunQuantizeAblation = expt.RunQuantizeAblation
	// RunRobustness sweeps link loss rates (failure injection).
	RunRobustness = expt.RunRobustness
)

// Compression types for the activation uplink.
type (
	// QuantizedTensor is a linearly quantized tensor.
	QuantizedTensor = compress.Quantized
	// QuantizeBits selects 8- or 16-bit width.
	QuantizeBits = compress.Bits
)

// Quantization widths and helpers.
const (
	// Quantize8 packs activations into one byte per element.
	Quantize8 = compress.Bits8
	// Quantize16 packs activations into two bytes per element.
	Quantize16 = compress.Bits16
)

// Quantize compresses a tensor; QuantizeRoundTrip compresses and
// immediately reconstructs (straight-through training).
var (
	Quantize          = compress.Quantize
	QuantizeRoundTrip = compress.RoundTrip
)

// Tensor and RNG utilities.
type (
	// Tensor is the dense N-d array underlying all computation.
	Tensor = tensor.Tensor
	// RNG is the deterministic random generator.
	RNG = mathx.RNG
)

// NewRNG seeds a deterministic generator.
var NewRNG = mathx.NewRNG
