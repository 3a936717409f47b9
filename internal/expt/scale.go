// Package expt is the experiment registry: one runner per table/figure of
// the paper, each producing a rendered results table plus structured
// values that tests and benchmarks assert against. Every experiment runs
// at a configurable Scale so the same code serves quick CI runs and
// paper-scale reproductions (DESIGN.md §4 indexes them).
package expt

import (
	"fmt"
	"time"

	"github.com/stsl/stsl/internal/nn"
)

// Scale bundles the knobs that trade experiment fidelity for runtime.
type Scale struct {
	// Name labels output ("tiny", "small", "paper").
	Name string
	// Model is the CNN configuration.
	Model nn.PaperCNNConfig
	// TrainPerClass and TestPerClass size the SynthCIFAR datasets.
	TrainPerClass, TestPerClass int
	// Clients is the number of end-systems M.
	Clients int
	// StepsPerClient bounds each client's contributed batches.
	StepsPerClient int
	// BatchSize is the per-client batch size.
	BatchSize int
	// LR is the SGD learning rate.
	LR float64
	// Alpha is the Dirichlet non-IID concentration (used by the
	// experiments that study skew; Table I shards IID as the paper does).
	Alpha float64
	// Epochs drives the centralized baseline's training length when no
	// step-parity budget applies.
	Epochs int
	// Repeats averages accuracy-reporting experiments over this many
	// seeds (default 1). Seed variance at reduced scale is large enough
	// to mask the cut-depth trend without averaging.
	Repeats int
}

func (s Scale) repeats() int {
	if s.Repeats <= 0 {
		return 1
	}
	return s.Repeats
}

// totalSteps is the whole deployment's batch budget, used to give the
// centralized baseline the same number of updates (budget parity).
func (s Scale) totalSteps() int { return s.Clients * s.StepsPerClient }

// Validate rejects inconsistent scales.
func (s Scale) Validate() error {
	if s.TrainPerClass <= 0 || s.TestPerClass <= 0 {
		return fmt.Errorf("expt: scale %q needs positive dataset sizes", s.Name)
	}
	if s.Clients <= 0 || s.StepsPerClient <= 0 || s.BatchSize <= 0 {
		return fmt.Errorf("expt: scale %q needs positive clients/steps/batch", s.Name)
	}
	if s.LR <= 0 || s.Alpha <= 0 || s.Epochs <= 0 {
		return fmt.Errorf("expt: scale %q needs positive lr/alpha/epochs", s.Name)
	}
	return nil
}

// TinyScale runs in well under a second — used by unit tests. The model
// has two blocks, so cuts range over 0..2 only.
func TinyScale() Scale {
	return Scale{
		Name: "tiny",
		Model: nn.PaperCNNConfig{
			InChannels: 3, Height: 8, Width: 8,
			Filters: []int{4, 8}, Hidden: 16, Classes: 4,
		},
		TrainPerClass: 16, TestPerClass: 10,
		Clients: 2, StepsPerClient: 6, BatchSize: 8,
		LR: 0.05, Alpha: 0.5, Epochs: 2,
	}
}

// SmallScale preserves the paper's full 5-block, 10-class structure at
// reduced width and data volume; it runs in tens of seconds and is the
// default for `go test -bench`.
func SmallScale() Scale {
	return Scale{
		Name: "small",
		Model: nn.PaperCNNConfig{
			InChannels: 3, Height: 32, Width: 32,
			Filters: []int{8, 12, 16, 24, 32}, Hidden: 64, Classes: 10,
		},
		TrainPerClass: 60, TestPerClass: 25,
		Clients: 4, StepsPerClient: 150, BatchSize: 16,
		LR: 0.05, Alpha: 0.5, Epochs: 3,
		Repeats: 2,
	}
}

// PaperScale matches the paper's architecture exactly (Fig-3 filter
// counts, 10 classes, 32×32×3); dataset volume remains synthetic but
// substantial. Expect minutes-to-hours of runtime; used via
// cmd/stsl-bench -scale paper.
func PaperScale() Scale {
	return Scale{
		Name:          "paper",
		Model:         nn.PaperCNNConfig{}, // defaults = exact Fig 3
		TrainPerClass: 500, TestPerClass: 100,
		Clients: 4, StepsPerClient: 600, BatchSize: 32,
		LR: 0.05, Alpha: 0.5, Epochs: 8,
	}
}

// ScaleByName resolves "tiny", "small" or "paper".
func ScaleByName(name string) (Scale, error) {
	switch name {
	case "tiny":
		return TinyScale(), nil
	case "small":
		return SmallScale(), nil
	case "paper":
		return PaperScale(), nil
	default:
		return Scale{}, fmt.Errorf("expt: unknown scale %q", name)
	}
}

// stdLatencies returns the heterogeneous per-client latency assignment
// used by the temporal experiments: client 0 far, the rest alternating
// near/regional.
func stdLatencies(clients int) []time.Duration {
	out := make([]time.Duration, clients)
	for i := range out {
		switch {
		case i == 0:
			out[i] = 80 * time.Millisecond // far
		case i%2 == 1:
			out[i] = 2 * time.Millisecond // near
		default:
			out[i] = 15 * time.Millisecond // regional
		}
	}
	return out
}
