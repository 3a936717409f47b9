package baseline

import (
	"testing"

	"github.com/stsl/stsl/internal/core"
	"github.com/stsl/stsl/internal/data"
	"github.com/stsl/stsl/internal/mathx"
	"github.com/stsl/stsl/internal/nn"
)

func cfgModel() nn.PaperCNNConfig {
	return nn.PaperCNNConfig{
		InChannels: 3, Height: 8, Width: 8,
		Filters: []int{4, 8},
		Hidden:  16,
		Classes: 4,
	}
}

func genData(t *testing.T, n int, seed uint64) *data.Dataset {
	t.Helper()
	ds, err := (data.SynthCIFAR{Height: 8, Width: 8, Classes: 4, Noise: 0.05}).Generate(n, seed)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestTrainCentralizedLearns(t *testing.T) {
	train := genData(t, 256, 1)
	test := genData(t, 128, 2)
	res, err := TrainCentralized(TrainConfig{
		Model: cfgModel(), Seed: 3, Epochs: 6, BatchSize: 16, LR: 0.05,
	}, train)
	if err != nil {
		t.Fatal(err)
	}
	cm, err := Evaluate(res.Model, test)
	if err != nil {
		t.Fatal(err)
	}
	// 4 classes → chance is 0.25; the model must do clearly better.
	if acc := cm.Accuracy(); acc < 0.45 {
		t.Fatalf("centralized accuracy %v barely above chance", acc)
	}
	if res.Losses.Last() <= 0 {
		t.Fatal("no loss curve recorded")
	}
}

func TestTrainCentralizedDeterminism(t *testing.T) {
	train := genData(t, 64, 5)
	run := func() *Result {
		res, err := TrainCentralized(TrainConfig{Model: cfgModel(), Seed: 7, Epochs: 1, BatchSize: 16}, train)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	pa, pb := a.Model.Net.Params(), b.Model.Net.Params()
	for i := range pa {
		if !pa[i].Value.Equal(pb[i].Value, 0) {
			t.Fatalf("parameter %s differs across identical runs", pa[i].Name)
		}
	}
}

func TestFedAvgLearnsAndAverages(t *testing.T) {
	train := genData(t, 200, 11)
	shards, err := data.PartitionIID(train, 4, mathx.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	res, err := TrainFedAvg(FedAvgConfig{
		Model: cfgModel(), Seed: 13, Rounds: 4, LocalEpochs: 1, BatchSize: 16, LR: 0.05,
	}, shards)
	if err != nil {
		t.Fatal(err)
	}
	test := genData(t, 100, 12)
	cm, err := Evaluate(res.Model, test)
	if err != nil {
		t.Fatal(err)
	}
	if acc := cm.Accuracy(); acc < 0.35 {
		t.Fatalf("FedAvg accuracy %v barely above chance", acc)
	}
}

func TestFedAvgRejectsEmptyShards(t *testing.T) {
	if _, err := TrainFedAvg(FedAvgConfig{Model: cfgModel()}, nil); err == nil {
		t.Fatal("no shards accepted")
	}
}

func TestVanillaSplitRuns(t *testing.T) {
	train := genData(t, 64, 15)
	dep, res, err := TrainVanillaSplit(VanillaSplitConfig{
		Train: core.Config{Model: cfgModel(), Cut: 1, Seed: 17, BatchSize: 8, LR: 0.05},
		Steps: 6,
	}, train)
	if err != nil {
		t.Fatal(err)
	}
	if res.ServerSteps != 6 {
		t.Fatalf("server steps = %d", res.ServerSteps)
	}
	test := genData(t, 40, 16)
	mean, _, err := dep.EvaluateMean(test)
	if err != nil {
		t.Fatal(err)
	}
	if mean < 0 || mean > 1 {
		t.Fatalf("accuracy %v out of range", mean)
	}
}
