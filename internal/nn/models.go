package nn

import (
	"fmt"

	"github.com/stsl/stsl/internal/mathx"
)

// PaperCNNConfig parameterises BuildPaperCNN. The zero value is completed
// by Defaults to the exact Fig-3 architecture: five L-blocks of
// Conv2D(3×3, same padding) + ReLU + MaxPool2D(2×2, stride 2) with 16, 32,
// 64, 128 and 256 filters over 32×32×3 input, then Dense(512) + ReLU +
// Dense(10). BuildPaperCNN runs each block's pool before its ReLU: max
// and ReLU commute exactly, in the values and in the routed gradients,
// and the ReLU then touches a quarter of the elements.
type PaperCNNConfig struct {
	// InChannels, Height, Width describe the input image (default 3×32×32).
	InChannels, Height, Width int
	// Filters lists the Conv2D filter counts for L1..L5.
	Filters []int
	// Hidden is the width of the first dense layer (default 512).
	Hidden int
	// Classes is the output dimension (default 10).
	Classes int
}

// Defaults returns cfg with unset fields replaced by the paper's values.
func (cfg PaperCNNConfig) Defaults() PaperCNNConfig {
	if cfg.InChannels == 0 {
		cfg.InChannels = 3
	}
	if cfg.Height == 0 {
		cfg.Height = 32
	}
	if cfg.Width == 0 {
		cfg.Width = 32
	}
	if cfg.Filters == nil {
		cfg.Filters = []int{16, 32, 64, 128, 256}
	}
	if cfg.Hidden == 0 {
		cfg.Hidden = 512
	}
	if cfg.Classes == 0 {
		cfg.Classes = 10
	}
	return cfg
}

// PaperCNN is the Fig-3 network together with the block boundaries needed
// to split it: Blocks[i] gives, for cut point L(i+1), the number of leading
// layers that live on the end-system.
type PaperCNN struct {
	// Net is the full monolithic network.
	Net *Sequential
	// Blocks[k] is the index into Net.Layers() one past the end of block
	// L(k+1); cutting after L_k means the first Blocks[k-1] layers are
	// client-side. Blocks has one entry per conv block.
	Blocks []int
	// Config echoes the (defaulted) construction parameters.
	Config PaperCNNConfig
}

// BuildPaperCNN constructs the Fig-3 CNN with weights initialised from r.
// Each block is Conv2D → MaxPool2D → ReLU, which computes
// the drawn Conv2D → ReLU → MaxPool2D bit for bit (TestPoolReLUCommute).
func BuildPaperCNN(cfg PaperCNNConfig, r *mathx.RNG) (*PaperCNN, error) {
	cfg = cfg.Defaults()
	if len(cfg.Filters) == 0 {
		return nil, fmt.Errorf("nn: PaperCNN needs at least one conv block")
	}
	h, w := cfg.Height, cfg.Width
	var layers []Layer
	var blocks []int
	inC := cfg.InChannels
	for i, f := range cfg.Filters {
		if h < 2 || w < 2 {
			return nil, fmt.Errorf("nn: PaperCNN input %dx%d too small for %d pooling blocks", cfg.Height, cfg.Width, len(cfg.Filters))
		}
		conv, err := NewConv2D(Conv2DConfig{
			Name: fmt.Sprintf("conv%d", i+1),
			In:   inC, Out: f,
			KernelH: 3, KernelW: 3,
			SamePad: true,
		}, r)
		if err != nil {
			return nil, err
		}
		pool, err := NewMaxPool2D(fmt.Sprintf("pool%d", i+1), 2, 2, 0, 0)
		if err != nil {
			return nil, err
		}
		layers = append(layers, conv, pool, NewReLU(fmt.Sprintf("relu%d", i+1)))
		blocks = append(blocks, len(layers))
		inC = f
		h /= 2
		w /= 2
	}
	layers = append(layers, NewFlatten("flatten"))
	flatDim := inC * h * w
	fc1, err := NewDense("fc1", flatDim, cfg.Hidden, nil, r)
	if err != nil {
		return nil, err
	}
	layers = append(layers, fc1, NewReLU("relu_fc1"))
	fc2, err := NewDense("fc2", cfg.Hidden, cfg.Classes, nil, r)
	if err != nil {
		return nil, err
	}
	layers = append(layers, fc2)

	net, err := NewSequential("paper-cnn", layers...)
	if err != nil {
		return nil, err
	}
	return &PaperCNN{Net: net, Blocks: blocks, Config: cfg}, nil
}

// CutIndex translates a cut point expressed in paper notation (cut=k means
// blocks L1..Lk run on the end-system; cut=0 means everything runs on the
// server) to a layer index into Net.Layers().
func (p *PaperCNN) CutIndex(cut int) (int, error) {
	if cut < 0 || cut > len(p.Blocks) {
		return 0, fmt.Errorf("nn: cut %d out of range [0,%d]", cut, len(p.Blocks))
	}
	if cut == 0 {
		return 0, nil
	}
	return p.Blocks[cut-1], nil
}

// MaxCut returns the deepest valid cut point (the number of conv blocks).
func (p *PaperCNN) MaxCut() int { return len(p.Blocks) }
