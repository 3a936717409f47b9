package core

import (
	"fmt"

	"github.com/stsl/stsl/internal/data"
	"github.com/stsl/stsl/internal/mathx"
	"github.com/stsl/stsl/internal/metrics"
	"github.com/stsl/stsl/internal/nn"
	"github.com/stsl/stsl/internal/opt"
	"github.com/stsl/stsl/internal/queue"
	"github.com/stsl/stsl/internal/tensor"
)

// Config describes a spatio-temporal split-learning deployment.
type Config struct {
	// Model parameterises the Fig-3 CNN.
	Model nn.PaperCNNConfig
	// Cut is the split point in paper notation (0 = everything on the
	// server, k = blocks L1..Lk on each end-system).
	Cut int
	// Clients is the number of end-systems M.
	Clients int
	// Seed drives all weight initialisation deterministically.
	Seed uint64
	// SharedClientInit makes every client start from identical lower-layer
	// weights (the template's); when false each client gets a private
	// random initialisation, which is the paper's setting.
	SharedClientInit bool
	// BatchSize is the per-client mini-batch size.
	BatchSize int
	// LR is the SGD learning rate used by both sides.
	LR float64
	// QueuePolicy selects the server's scheduling discipline: "fifo",
	// "staleness", "fair-rr" or "sync-rounds" (default fifo).
	QueuePolicy string
	// BatchCoalesce caps how many compatible queued activations the
	// server stacks into one coalesced forward/backward pass (0 or 1 =
	// serve one at a time). Coalescing amortises the conv/matmul hot
	// path across clients; one coalesced pass is one optimiser step over
	// the combined batch. Both runtimes honour it: the virtual-time
	// simulation directly, the live cluster runtime as the default for
	// cluster.Config.BatchCoalesce. With sync-rounds the gated round is
	// atomic and may exceed this cap.
	BatchCoalesce int
	// DType selects the wire encoding — wire only, compute is always
	// float64: "" or "float64" has every end-system ship float64
	// payloads; "float32" sets EndSystem.WireDType so activations ship at
	// float32 width (half the wire bytes), and the server answers each
	// in kind. The virtual-time simulation has no codec and ignores it.
	DType string
}

func (c Config) withDefaults() Config {
	if c.Clients == 0 {
		c.Clients = 1
	}
	if c.BatchSize == 0 {
		c.BatchSize = 32
	}
	if c.LR == 0 {
		c.LR = 0.05
	}
	if c.QueuePolicy == "" {
		c.QueuePolicy = "fifo"
	}
	return c
}

// Deployment is a fully wired split-learning system: M end-systems with
// private lower stacks plus the shared server.
type Deployment struct {
	Config  Config
	Clients []*EndSystem
	Server  *Server
	// model is the template used to derive shapes for evaluation.
	classes int
}

// NewDeployment builds the deployment. shards supplies each client's
// local dataset and must have exactly cfg.Clients entries.
func NewDeployment(cfg Config, shards []*data.Dataset) (*Deployment, error) {
	cfg = cfg.withDefaults()
	if len(shards) != cfg.Clients {
		return nil, fmt.Errorf("core: %d shards for %d clients", len(shards), cfg.Clients)
	}
	dtype, err := tensor.ParseDType(cfg.DType)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	template, err := nn.BuildPaperCNN(cfg.Model, mathx.NewRNG(cfg.Seed))
	if err != nil {
		return nil, fmt.Errorf("core: build template: %w", err)
	}
	_, serverStack, err := Split(template, cfg.Cut)
	if err != nil {
		return nil, err
	}
	serverOpt, err := opt.NewSGD(opt.Config{LR: cfg.LR})
	if err != nil {
		return nil, err
	}
	pol, err := newQueuePolicy(cfg.QueuePolicy, cfg.Clients)
	if err != nil {
		return nil, err
	}
	server, err := NewServer(serverStack, serverOpt, pol)
	if err != nil {
		return nil, err
	}

	seedGen := mathx.NewRNG(cfg.Seed ^ 0xc2b2ae3d27d4eb4f)
	clients := make([]*EndSystem, cfg.Clients)
	for i := 0; i < cfg.Clients; i++ {
		clientSeed := cfg.Seed
		if !cfg.SharedClientInit {
			clientSeed = seedGen.Uint64()
		}
		// Rebuild a CNN from the client seed and keep only the lower
		// layers; with SharedClientInit this reproduces the template's
		// lower weights exactly (same seed, same build order).
		cnn, err := nn.BuildPaperCNN(cfg.Model, mathx.NewRNG(clientSeed))
		if err != nil {
			return nil, fmt.Errorf("core: build client %d: %w", i, err)
		}
		lower, _, err := Split(cnn, cfg.Cut)
		if err != nil {
			return nil, err
		}
		clientOpt, err := opt.NewSGD(opt.Config{LR: cfg.LR})
		if err != nil {
			return nil, err
		}
		batcher, err := data.NewBatcher(shards[i], cfg.BatchSize, mathx.NewRNG(cfg.Seed+uint64(i)*7919+13))
		if err != nil {
			return nil, fmt.Errorf("core: batcher for client %d: %w", i, err)
		}
		es, err := NewEndSystem(i, lower, clientOpt, batcher)
		if err != nil {
			return nil, err
		}
		es.WireDType = dtype
		clients[i] = es
	}
	return &Deployment{
		Config:  cfg,
		Clients: clients,
		Server:  server,
		classes: shards[0].Classes,
	}, nil
}

func newQueuePolicy(name string, clients int) (queue.Policy, error) {
	if name == "sync-rounds" {
		ids := make([]int, clients)
		for i := range ids {
			ids[i] = i
		}
		return queue.NewSyncRounds(ids), nil
	}
	return queue.NewPolicy(name)
}

// Evaluate runs the test set through one client's private stack and the
// shared server stack (both in inference mode) and returns the confusion
// matrix.
func (d *Deployment) Evaluate(clientIdx int, test *data.Dataset) (*metrics.ConfusionMatrix, error) {
	if clientIdx < 0 || clientIdx >= len(d.Clients) {
		return nil, fmt.Errorf("core: client index %d out of range", clientIdx)
	}
	cm, err := metrics.NewConfusionMatrix(test.Classes)
	if err != nil {
		return nil, err
	}
	batcher, err := data.NewBatcher(test, 128, nil)
	if err != nil {
		return nil, err
	}
	client := d.Clients[clientIdx]
	for {
		batch, ok := batcher.Next()
		if !ok {
			break
		}
		act := client.Stack.Forward(batch.X, false)
		logits := d.Server.Stack.Forward(act, false)
		if err := cm.Add(nn.Predict(logits), batch.Y); err != nil {
			return nil, err
		}
	}
	return cm, nil
}

// EvaluateMean returns the mean test accuracy across all clients'
// pipelines — the deployment-level figure reported in the Table I
// reproduction — together with the per-client accuracies.
func (d *Deployment) EvaluateMean(test *data.Dataset) (float64, []float64, error) {
	accs := make([]float64, len(d.Clients))
	sum := 0.0
	for i := range d.Clients {
		cm, err := d.Evaluate(i, test)
		if err != nil {
			return 0, nil, err
		}
		accs[i] = cm.Accuracy()
		sum += accs[i]
	}
	return sum / float64(len(accs)), accs, nil
}
