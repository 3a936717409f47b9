package expt

import (
	"fmt"
	"time"

	"github.com/stsl/stsl/internal/baseline"
	"github.com/stsl/stsl/internal/core"
	"github.com/stsl/stsl/internal/data"
	"github.com/stsl/stsl/internal/mathx"
	"github.com/stsl/stsl/internal/metrics"
	"github.com/stsl/stsl/internal/simnet"
)

// TableIRow is one row of the Table I reproduction.
type TableIRow struct {
	// Label matches the paper's row naming ("Nothing", "L1", "L1-L2"…).
	Label string
	// Cut is the split point (0 for the centralized row).
	Cut int
	// Accuracy is the measured test accuracy in [0,1].
	Accuracy float64
	// PaperAccuracy is the value the paper reports for this row
	// (fractional), 0 when the paper has no matching row.
	PaperAccuracy float64
}

// TableIResult is the full Table I reproduction.
type TableIResult struct {
	Rows  []TableIRow
	Table *metrics.Table
}

// paperTableI holds the accuracies from the paper's Table I, indexed by
// cut depth (0 = all layers at the server).
var paperTableI = map[int]float64{
	0: 0.7109,
	1: 0.6818,
	2: 0.6792,
	3: 0.6600,
	4: 0.6566,
}

// paperCell renders the paper's Table I accuracy for a cut depth as a
// percentage, or "—" where the paper has no matching row (cut 5), so a
// missing value never reads as 0.00.
func paperCell(cut int) any {
	if p, ok := paperTableI[cut]; ok {
		return p * 100
	}
	return "—"
}

// cutLabel renders the paper's row naming for a cut depth.
func cutLabel(cut int) string {
	switch cut {
	case 0:
		return "Nothing"
	case 1:
		return "L1"
	default:
		return fmt.Sprintf("L1-L%d", cut)
	}
}

// RunTableI reproduces Table I: test accuracy as a function of how many
// blocks live on the end-systems. Row 0 ("Nothing") is the fully
// centralized model trained on the pooled data; rows 1..maxCut train the
// spatio-temporal deployment with M non-IID clients holding private
// copies of L1..Lk. The expected *shape* is monotone degradation with
// depth; absolute values depend on the synthetic workload.
func RunTableI(s Scale, seed uint64) (*TableIResult, error) {
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
	meansT, stdsT := train.Normalize()
	test.ApplyNormalization(meansT, stdsT)

	res := &TableIResult{
		Table: metrics.NewTable(
			fmt.Sprintf("Table I — accuracy vs layers at end-systems (scale=%s, M=%d, %d seed(s))",
				s.Name, s.Clients, s.repeats()),
			"layers-at-end-systems", "cut", "accuracy-%", "paper-%"),
	}

	addRow := func(label string, cut int, acc float64) {
		res.Rows = append(res.Rows, TableIRow{Label: label, Cut: cut, Accuracy: acc, PaperAccuracy: paperTableI[cut]})
		res.Table.AddRow(label, cut, acc*100, paperCell(cut))
	}

	// Row 0: centralized upper bound ("Nothing — all layers in server"),
	// given the same total batch budget as the split deployments,
	// averaged over seeds.
	centAcc := 0.0
	for rep := 0; rep < s.repeats(); rep++ {
		cent, err := baseline.TrainCentralized(baseline.TrainConfig{
			Model: s.Model, Seed: seed + uint64(rep)*7777, Epochs: s.Epochs, Steps: s.totalSteps(),
			BatchSize: s.BatchSize, LR: s.LR,
		}, train)
		if err != nil {
			return nil, err
		}
		cm, err := baseline.Evaluate(cent.Model, test)
		if err != nil {
			return nil, err
		}
		centAcc += cm.Accuracy()
	}
	addRow(cutLabel(0), 0, centAcc/float64(s.repeats()))

	// Rows 1..maxCut: split deployments with private client layers. The
	// paper's Table I setting shards the training data across
	// end-systems without label skew.
	maxCut := len(s.Model.Defaults().Filters)
	shards, err := data.PartitionIID(train, s.Clients, mathx.NewRNG(seed+2))
	if err != nil {
		return nil, err
	}
	for cut := 1; cut <= maxCut; cut++ {
		acc := 0.0
		for rep := 0; rep < s.repeats(); rep++ {
			a, err := trainSplitAccuracy(s, seed+uint64(rep)*7777, cut, shards, test)
			if err != nil {
				return nil, fmt.Errorf("expt: table1 cut %d: %w", cut, err)
			}
			acc += a
		}
		addRow(cutLabel(cut), cut, acc/float64(s.repeats()))
	}
	return res, nil
}

// trainSplitAccuracy trains one spatio-temporal deployment and returns
// mean test accuracy across client pipelines.
func trainSplitAccuracy(s Scale, seed uint64, cut int, shards []*data.Dataset, test *data.Dataset) (float64, error) {
	dep, err := core.NewDeployment(core.Config{
		Model: s.Model, Cut: cut, Clients: s.Clients, Seed: seed + uint64(cut)*1009,
		BatchSize: s.BatchSize, LR: s.LR,
	}, shards)
	if err != nil {
		return 0, err
	}
	paths := make([]*simnet.Path, s.Clients)
	for i := range paths {
		paths[i], err = simnet.NewSymmetricPath(
			simnet.Constant{D: time.Millisecond}, 0, mathx.NewRNG(seed+uint64(i)+500))
		if err != nil {
			return 0, err
		}
	}
	sim, err := core.NewSimulation(dep, core.SimConfig{
		Paths:             paths,
		MaxStepsPerClient: s.StepsPerClient,
	})
	if err != nil {
		return 0, err
	}
	if _, err := sim.Run(); err != nil {
		return 0, err
	}
	mean, _, err := dep.EvaluateMean(test)
	return mean, err
}
