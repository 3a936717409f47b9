package baseline

import (
	"errors"
	"fmt"
	"math"

	"github.com/stsl/stsl/internal/data"
	"github.com/stsl/stsl/internal/mathx"
	"github.com/stsl/stsl/internal/metrics"
	"github.com/stsl/stsl/internal/nn"
	"github.com/stsl/stsl/internal/opt"
	"github.com/stsl/stsl/internal/tensor"
)

// FedAvgConfig parameterises the federated-averaging baseline.
type FedAvgConfig struct {
	// Model parameterises the Fig-3 CNN replicated at every client.
	Model nn.PaperCNNConfig
	// Seed drives the (shared) global initialisation.
	Seed uint64
	// Rounds is the number of communication rounds.
	Rounds int
	// LocalEpochs is the number of local passes per round (default 1).
	LocalEpochs int
	// BatchSize is the local mini-batch size (default 32).
	BatchSize int
	// LR is the local SGD learning rate (default 0.05).
	LR float64
}

func (c FedAvgConfig) withDefaults() FedAvgConfig {
	if c.Rounds == 0 {
		c.Rounds = 1
	}
	if c.LocalEpochs == 0 {
		c.LocalEpochs = 1
	}
	if c.BatchSize == 0 {
		c.BatchSize = 32
	}
	if c.LR == 0 {
		c.LR = 0.05
	}
	return c
}

// TrainFedAvg runs federated averaging over the client shards: every
// round, each client copies the global weights, trains locally for
// LocalEpochs, and the server replaces the global model with the
// example-weighted average of the client models. The returned model is
// the final global model. This is the standard comparison point for
// split learning: FedAvg ships whole models; split learning ships
// activations.
func TrainFedAvg(cfg FedAvgConfig, shards []*data.Dataset) (*Result, error) {
	cfg = cfg.withDefaults()
	if len(shards) == 0 {
		return nil, fmt.Errorf("baseline: FedAvg needs at least one shard")
	}
	global, err := nn.BuildPaperCNN(cfg.Model, mathx.NewRNG(cfg.Seed))
	if err != nil {
		return nil, err
	}
	// Build per-client replicas once; weights are overwritten per round.
	replicas := make([]*nn.PaperCNN, len(shards))
	batchers := make([]*data.Batcher, len(shards))
	for i := range shards {
		replicas[i], err = nn.BuildPaperCNN(cfg.Model, mathx.NewRNG(cfg.Seed))
		if err != nil {
			return nil, err
		}
		batchers[i], err = data.NewBatcher(shards[i], cfg.BatchSize, mathx.NewRNG(cfg.Seed+uint64(i)*31+7))
		if err != nil {
			return nil, err
		}
	}
	curve, err := metrics.NewLossCurve(10)
	if err != nil {
		return nil, err
	}
	// Example-count weights for the aggregation rule; averageParams
	// normalises them, so raw shard sizes are fine.
	weights := make([]float64, len(shards))
	replicaParams := make([][]*nn.Param, len(replicas))
	for i, s := range shards {
		weights[i] = float64(s.Len())
		replicaParams[i] = replicas[i].Net.Params()
	}

	for round := 0; round < cfg.Rounds; round++ {
		for i, rep := range replicas {
			// Pull global weights.
			if err := copyParams(rep.Net.Params(), global.Net.Params()); err != nil {
				return nil, err
			}
			optim, err := opt.NewSGD(opt.Config{LR: cfg.LR})
			if err != nil {
				return nil, err
			}
			for e := 0; e < cfg.LocalEpochs; e++ {
				for {
					batch, ok := batchers[i].Next()
					if !ok {
						break
					}
					rep.Net.ZeroGrad()
					logits := rep.Net.Forward(batch.X, true)
					loss, grad, err := nn.SoftmaxCrossEntropy(logits, batch.Y)
					if err != nil {
						return nil, err
					}
					rep.Net.Backward(grad)
					optim.Step(rep.Net.Params())
					curve.Observe(loss)
				}
			}
		}
		// Example-weighted average into the global model.
		if err := averageParams(global.Net.Params(), replicaParams, weights); err != nil {
			return nil, err
		}
	}
	return &Result{Model: global, Losses: curve}, nil
}

// errNonFinite reports parameter values that are NaN or ±Inf where
// finite numbers are required: a source set handed to copyParams or
// averageParams. A client whose local training diverged fails the run
// instead of poisoning the global model.
var errNonFinite = errors.New("baseline: non-finite parameter values")

// finiteParams reports whether every value of every parameter is finite.
func finiteParams(set []*nn.Param) bool {
	for _, p := range set {
		for _, v := range p.Value.Data() {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return false
			}
		}
	}
	return true
}

// copyParams overwrites dst's parameter values with src's. Gradients and
// optimiser slots are untouched. The two sets must be structurally
// identical (same length, same per-position shapes).
func copyParams(dst, src []*nn.Param) error {
	if len(dst) != len(src) {
		return fmt.Errorf("baseline: copy %d params into %d", len(src), len(dst))
	}
	// The check runs before any write so a rejected copy leaves dst
	// untouched.
	if !finiteParams(src) {
		return fmt.Errorf("baseline: copy source: %w", errNonFinite)
	}
	for i := range dst {
		dst[i].Value.CopyFrom(src[i].Value)
	}
	return nil
}

// averageParams computes the weighted average of the parameter sets into
// dst (dst may alias one of the sets — every source value is read
// through a private accumulator before dst is written). weights is
// normalised internally; nil means uniform.
func averageParams(dst []*nn.Param, sets [][]*nn.Param, weights []float64) error {
	if len(sets) == 0 {
		return fmt.Errorf("baseline: average of zero parameter sets")
	}
	if weights != nil && len(weights) != len(sets) {
		return fmt.Errorf("baseline: %d weights for %d parameter sets", len(weights), len(sets))
	}
	total := 0.0
	if weights == nil {
		total = float64(len(sets))
	} else {
		for _, w := range weights {
			if w < 0 {
				return fmt.Errorf("baseline: negative weight %v", w)
			}
			total += w
		}
		if total <= 0 {
			return fmt.Errorf("baseline: weights sum to %v, want positive", total)
		}
	}
	for si, set := range sets {
		if len(set) != len(dst) {
			return fmt.Errorf("baseline: averaging %d params into %d", len(set), len(dst))
		}
		// A single NaN would poison every coordinate of the mean.
		if !finiteParams(set) {
			return fmt.Errorf("baseline: set %d: %w", si, errNonFinite)
		}
	}
	for pi := range dst {
		acc := tensor.New(sets[0][pi].Value.Shape()...)
		for si, set := range sets {
			w := 1.0 / total
			if weights != nil {
				w = weights[si] / total
			}
			acc.AXPY(w, set[pi].Value)
		}
		dst[pi].Value.CopyFrom(acc)
	}
	return nil
}
