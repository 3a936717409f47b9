package expt

import (
	"fmt"
	"time"

	"github.com/stsl/stsl/internal/baseline"
	"github.com/stsl/stsl/internal/core"
	"github.com/stsl/stsl/internal/data"
	"github.com/stsl/stsl/internal/mathx"
	"github.com/stsl/stsl/internal/metrics"
	"github.com/stsl/stsl/internal/nn"
	"github.com/stsl/stsl/internal/privacy"
	"github.com/stsl/stsl/internal/simnet"
)

// Fig1Result reproduces the paper's Fig 1: basic (single end-system)
// split learning, demonstrating that the split protocol trains the same
// function as a monolithic network.
type Fig1Result struct {
	// SplitAccuracy is the single-client split model's test accuracy.
	SplitAccuracy float64
	// MonolithicAccuracy is the same architecture trained centrally on
	// the same data.
	MonolithicAccuracy float64
	// ServerSteps counts batches the server consumed.
	ServerSteps int
	Table       *metrics.Table
}

// RunFig1 trains the Fig-1 single-client split system and its monolithic
// twin.
func RunFig1(s Scale, seed uint64) (*Fig1Result, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	gen := data.SynthCIFAR{
		Height: s.Model.Defaults().Height, Width: s.Model.Defaults().Width,
		Classes: s.Model.Defaults().Classes,
	}
	train, err := gen.GenerateBalanced(s.TrainPerClass, seed)
	if err != nil {
		return nil, err
	}
	test, err := gen.GenerateBalanced(s.TestPerClass, seed+1)
	if err != nil {
		return nil, err
	}
	m, sd := train.Normalize()
	test.ApplyNormalization(m, sd)

	dep, res, err := baseline.TrainVanillaSplit(baseline.VanillaSplitConfig{
		Train: core.Config{
			Model: s.Model, Cut: 1, Seed: seed, BatchSize: s.BatchSize, LR: s.LR,
			SharedClientInit: true,
		},
		Steps: s.totalSteps(), // match total batch budget
	}, train)
	if err != nil {
		return nil, err
	}
	splitAcc, _, err := dep.EvaluateMean(test)
	if err != nil {
		return nil, err
	}
	cent, err := baseline.TrainCentralized(baseline.TrainConfig{
		Model: s.Model, Seed: seed, Epochs: s.Epochs, Steps: s.totalSteps(),
		BatchSize: s.BatchSize, LR: s.LR,
	}, train)
	if err != nil {
		return nil, err
	}
	cm, err := baseline.Evaluate(cent.Model, test)
	if err != nil {
		return nil, err
	}

	table := metrics.NewTable(
		fmt.Sprintf("Fig 1 — basic split learning, one end-system (scale=%s)", s.Name),
		"system", "accuracy-%", "server-steps")
	table.AddRow("monolithic", cm.Accuracy()*100, "-")
	table.AddRow("split(cut=1)", splitAcc*100, res.ServerSteps)
	return &Fig1Result{
		SplitAccuracy:      splitAcc,
		MonolithicAccuracy: cm.Accuracy(),
		ServerSteps:        res.ServerSteps,
		Table:              table,
	}, nil
}

// Fig2Result reproduces Fig 2: M end-systems sharing one server through
// the scheduling queue, with heterogeneous geo-distributed latencies.
type Fig2Result struct {
	// ClientCounts holds M values swept.
	ClientCounts []int
	// StepsPerClient[i] holds per-client contributions at ClientCounts[i].
	StepsPerClient [][]int
	// MaxOccupancy[i] is the queue high-water mark at ClientCounts[i].
	MaxOccupancy []int
	// MeanWait[i] is the mean queue wait at ClientCounts[i].
	MeanWait []time.Duration
	Table    *metrics.Table
}

// RunFig2 sweeps the number of end-systems and reports queue behaviour.
func RunFig2(s Scale, seed uint64, clientCounts []int) (*Fig2Result, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if len(clientCounts) == 0 {
		clientCounts = []int{2, 4, 8}
	}
	gen := data.SynthCIFAR{
		Height: s.Model.Defaults().Height, Width: s.Model.Defaults().Width,
		Classes: s.Model.Defaults().Classes,
	}
	res := &Fig2Result{
		ClientCounts: clientCounts,
		Table: metrics.NewTable(
			fmt.Sprintf("Fig 2 — spatio-temporal framework, M end-systems + queue (scale=%s)", s.Name),
			"M", "server-steps", "max-queue-occupancy", "mean-wait", "virtual-time"),
	}
	for _, m := range clientCounts {
		train, err := gen.GenerateBalanced(s.TrainPerClass, seed+uint64(m))
		if err != nil {
			return nil, err
		}
		train.Normalize()
		shards, err := data.PartitionDirichlet(train, m, s.Alpha, mathx.NewRNG(seed+uint64(m)+3))
		if err != nil {
			return nil, err
		}
		dep, err := core.NewDeployment(core.Config{
			Model: s.Model, Cut: 1, Clients: m, Seed: seed,
			BatchSize: s.BatchSize, LR: s.LR,
		}, shards)
		if err != nil {
			return nil, err
		}
		lat := stdLatencies(m)
		paths := make([]*simnet.Path, m)
		for i := range paths {
			paths[i], err = simnet.NewSymmetricPath(simnet.Constant{D: lat[i]}, 0, mathx.NewRNG(seed+uint64(i)*17))
			if err != nil {
				return nil, err
			}
		}
		sim, err := core.NewSimulation(dep, core.SimConfig{
			Paths:             paths,
			MaxStepsPerClient: s.StepsPerClient,
			ServerProcTime:    time.Millisecond,
		})
		if err != nil {
			return nil, err
		}
		simRes, err := sim.Run()
		if err != nil {
			return nil, err
		}
		res.StepsPerClient = append(res.StepsPerClient, simRes.StepsPerClient)
		res.MaxOccupancy = append(res.MaxOccupancy, dep.Server.QueueMetrics.MaxOccupancy())
		res.MeanWait = append(res.MeanWait, dep.Server.QueueMetrics.MeanWait())
		res.Table.AddRow(m, simRes.ServerSteps, dep.Server.QueueMetrics.MaxOccupancy(),
			dep.Server.QueueMetrics.MeanWait().String(), simRes.VirtualDuration.String())
	}
	return res, nil
}

// Fig3Result audits the Fig-3 CNN architecture.
type Fig3Result struct {
	// Summary is the per-layer shape/parameter table.
	Summary string
	// ParamCount is the total learnable parameter count.
	ParamCount int
	// CutShapes[k] is the activation shape crossing the network at cut k.
	CutShapes map[int][]int
}

// RunFig3 builds the paper's exact CNN and reports its structure and the
// activation geometry at every possible cut.
func RunFig3(cfg nn.PaperCNNConfig, seed uint64) (*Fig3Result, error) {
	model, err := nn.BuildPaperCNN(cfg, mathx.NewRNG(seed))
	if err != nil {
		return nil, err
	}
	c := model.Config
	in := []int{c.InChannels, c.Height, c.Width}
	summary, err := model.Net.Summary(in)
	if err != nil {
		return nil, err
	}
	cutShapes := make(map[int][]int)
	for cut := 0; cut <= model.MaxCut(); cut++ {
		client, _, err := core.Split(model, cut)
		if err != nil {
			return nil, err
		}
		shape, err := client.OutShape(in)
		if err != nil {
			return nil, err
		}
		cutShapes[cut] = shape
	}
	return &Fig3Result{
		Summary:    summary,
		ParamCount: model.Net.ParamCount(),
		CutShapes:  cutShapes,
	}, nil
}

// Fig4Result aggregates the Fig-4 privacy experiment over several images.
type Fig4Result struct {
	// MeanEdgeCorr holds mean fine-detail leakage per stage
	// (original, conv-l1, l1).
	MeanEdgeCorr [3]float64
	// MeanCorr holds mean structural correlation per stage.
	MeanCorr [3]float64
	// MonotoneFraction is the fraction of images with strictly
	// decreasing edge leak.
	MonotoneFraction float64
	Table            *metrics.Table
}

// RunFig4 measures what first-layer activations reveal, averaged over
// images; when outDir is non-empty the first image's three stages are
// written as PNGs.
func RunFig4(s Scale, seed uint64, images int, outDir string) (*Fig4Result, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if images <= 0 {
		images = 8
	}
	cfg := s.Model.Defaults()
	model, err := nn.BuildPaperCNN(cfg, mathx.NewRNG(seed))
	if err != nil {
		return nil, err
	}
	gen := data.SynthCIFAR{Height: cfg.Height, Width: cfg.Width, Classes: cfg.Classes, Noise: 0.03}
	ds, err := gen.Generate(images, seed+7)
	if err != nil {
		return nil, err
	}
	res := &Fig4Result{}
	monotone := 0
	for i := 0; i < images; i++ {
		dir := ""
		if i == 0 {
			dir = outDir
		}
		one, err := privacy.RunFig4(model, ds.Image(i), dir)
		if err != nil {
			return nil, err
		}
		for sIdx, st := range one.Stages {
			res.MeanEdgeCorr[sIdx] += st.Leak.EdgeCorrelation
			res.MeanCorr[sIdx] += st.Leak.Correlation
		}
		if one.Monotone() {
			monotone++
		}
	}
	for i := range res.MeanEdgeCorr {
		res.MeanEdgeCorr[i] /= float64(images)
		res.MeanCorr[i] /= float64(images)
	}
	res.MonotoneFraction = float64(monotone) / float64(images)

	res.Table = metrics.NewTable(
		fmt.Sprintf("Fig 4 — image leakage through the first block (scale=%s, %d images)", s.Name, images),
		"stage", "edge-corr (detail leak)", "corr (structure leak)")
	names := []string{"(a) original", "(b) Conv2D in L1", "(c) L1 (conv+maxpool)"}
	for i, n := range names {
		res.Table.AddRow(n, fmt.Sprintf("%.3f", res.MeanEdgeCorr[i]), fmt.Sprintf("%.3f", res.MeanCorr[i]))
	}
	return res, nil
}

// AttackRow is one cut's outcome in the reconstruction attack.
type AttackRow struct {
	Cut int
	// PSNR is the mean reconstruction PSNR on held-out images, in dB
	// (higher = more leaked).
	PSNR float64
	// Correlation is the mean absolute pixel correlation between
	// original and reconstruction on held-out images.
	Correlation float64
}

// AttackResult is the stronger adversary behind Fig 4: a decoder trained
// to invert the end-system's stack at each cut.
type AttackResult struct {
	Rows []AttackRow
	// Verdict states the leakage ordering the rows measured across cuts.
	Verdict string
	Table   *metrics.Table
}

// RunAttack mounts the trained reconstruction attack on the Fig-4 model
// at cuts 1 and 2: an informed adversary holding 256 auxiliary images
// learns to map activations back to pixels and is scored on 32 held-out
// ones. The model is freshly initialised, as in RunFig4.
func RunAttack(s Scale, seed uint64) (*AttackResult, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	cfg := s.Model.Defaults()
	model, err := nn.BuildPaperCNN(cfg, mathx.NewRNG(seed))
	if err != nil {
		return nil, err
	}
	gen := data.SynthCIFAR{Height: cfg.Height, Width: cfg.Width, Classes: cfg.Classes, Noise: 0.03}
	aux, err := gen.Generate(256, seed+100)
	if err != nil {
		return nil, err
	}
	holdout, err := gen.Generate(32, seed+101)
	if err != nil {
		return nil, err
	}
	res := &AttackResult{Table: metrics.NewTable(
		fmt.Sprintf("Reconstruction attack — trained decoder, informed adversary (scale=%s)", s.Name),
		"cut", "PSNR-dB", "correlation")}
	for _, cut := range []int{1, 2} {
		lower, _, err := core.Split(model, cut)
		if err != nil {
			return nil, err
		}
		att, err := privacy.ReconstructionAttack(privacy.AttackConfig{
			Seed: seed, Steps: 400, BatchSize: 16, LR: 0.005, Hidden: 128,
		}, lower, aux, holdout)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, AttackRow{Cut: cut, PSNR: att.MeanPSNR, Correlation: att.MeanCorrelation})
		res.Table.AddRow(cut, fmt.Sprintf("%.1f", att.MeanPSNR), fmt.Sprintf("%.3f", att.MeanCorrelation))
	}
	res.Verdict = attackVerdict(res.Rows)
	return res, nil
}

// attackVerdict names the ordering the rows show from each cut to the
// next deeper one: both measures falling, both rising, or neither.
func attackVerdict(rows []AttackRow) string {
	less, more := true, true
	for i := 1; i < len(rows); i++ {
		a, b := rows[i-1], rows[i]
		less = less && b.PSNR < a.PSNR && b.Correlation < a.Correlation
		more = more && b.PSNR > a.PSNR && b.Correlation > a.Correlation
	}
	switch {
	case less:
		return "deeper cuts leak less: lower PSNR and correlation"
	case more:
		return "deeper cuts leak more: higher PSNR and correlation"
	default:
		return "no consistent ordering across cuts in PSNR and correlation"
	}
}
