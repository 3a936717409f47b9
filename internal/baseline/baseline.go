// Package baseline implements the comparison systems for the evaluation:
// fully centralized training (Table I's "Nothing — all layers in the
// server" row), classic single-client split learning (the paper's Fig 1),
// and federated averaging (FedAvg), the alternative privacy-preserving
// approach the paper positions itself against.
package baseline

import (
	"github.com/stsl/stsl/internal/data"
	"github.com/stsl/stsl/internal/mathx"
	"github.com/stsl/stsl/internal/metrics"
	"github.com/stsl/stsl/internal/nn"
	"github.com/stsl/stsl/internal/opt"
)

// TrainConfig parameterises the centralized trainer.
type TrainConfig struct {
	// Model parameterises the Fig-3 CNN.
	Model nn.PaperCNNConfig
	// Seed drives weight initialisation and batch shuffling.
	Seed uint64
	// BatchSize is the mini-batch size (default 32).
	BatchSize int
	// Epochs is the number of passes over the training set (default 1).
	Epochs int
	// Steps, when positive, bounds training to that many batch updates
	// regardless of Epochs — used for budget-parity comparisons against
	// split deployments (which count per-client steps).
	Steps int
	// LR is the SGD learning rate (default 0.05).
	LR float64
}

func (c TrainConfig) withDefaults() TrainConfig {
	if c.BatchSize == 0 {
		c.BatchSize = 32
	}
	if c.Epochs == 0 {
		c.Epochs = 1
	}
	if c.LR == 0 {
		c.LR = 0.05
	}
	return c
}

// Result reports a trained model with its learning curve.
type Result struct {
	Model  *nn.PaperCNN
	Losses *metrics.LossCurve
}

// TrainCentralized trains the monolithic Fig-3 CNN on train — the upper
// bound the split variants are measured against.
func TrainCentralized(cfg TrainConfig, train *data.Dataset) (*Result, error) {
	cfg = cfg.withDefaults()
	model, err := nn.BuildPaperCNN(cfg.Model, mathx.NewRNG(cfg.Seed))
	if err != nil {
		return nil, err
	}
	optim, err := opt.NewSGD(opt.Config{LR: cfg.LR})
	if err != nil {
		return nil, err
	}
	batcher, err := data.NewBatcher(train, cfg.BatchSize, mathx.NewRNG(cfg.Seed+13))
	if err != nil {
		return nil, err
	}
	curve, err := metrics.NewLossCurve(10)
	if err != nil {
		return nil, err
	}
	steps := 0
	epochs := cfg.Epochs
	if cfg.Steps > 0 {
		// Step-bounded mode: loop epochs until the budget is spent.
		epochs = cfg.Steps // upper bound; the step check breaks out
	}
	for epoch := 0; epoch < epochs; epoch++ {
		if cfg.Steps > 0 && steps >= cfg.Steps {
			break
		}
		for {
			batch, ok := batcher.Next()
			if !ok {
				break
			}
			model.Net.ZeroGrad()
			logits := model.Net.Forward(batch.X, true)
			loss, grad, err := nn.SoftmaxCrossEntropy(logits, batch.Y)
			if err != nil {
				return nil, err
			}
			model.Net.Backward(grad)
			optim.Step(model.Net.Params())
			curve.Observe(loss)
			if steps++; cfg.Steps > 0 && steps >= cfg.Steps {
				break
			}
		}
	}
	return &Result{Model: model, Losses: curve}, nil
}

// Evaluate returns the confusion matrix of a monolithic model on test.
func Evaluate(model *nn.PaperCNN, test *data.Dataset) (*metrics.ConfusionMatrix, error) {
	cm, err := metrics.NewConfusionMatrix(test.Classes)
	if err != nil {
		return nil, err
	}
	batcher, err := data.NewBatcher(test, 128, nil)
	if err != nil {
		return nil, err
	}
	for {
		batch, ok := batcher.Next()
		if !ok {
			return cm, nil
		}
		logits := model.Net.Forward(batch.X, false)
		if err := cm.Add(nn.Predict(logits), batch.Y); err != nil {
			return nil, err
		}
	}
}
