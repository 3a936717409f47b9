package privacy

import (
	"fmt"
	"path/filepath"

	"github.com/stsl/stsl/internal/nn"
	"github.com/stsl/stsl/internal/tensor"
)

// Fig4Stage is one column of the paper's Fig 4.
type Fig4Stage struct {
	// Name labels the stage: "original", "conv-l1", "l1" (conv+pool).
	Name string
	// Leak holds the best-channel leakage metrics vs the original.
	Leak LeakReport
}

// Fig4Result is the per-image outcome of the Fig-4 experiment.
type Fig4Result struct {
	Stages []Fig4Stage
}

// Monotone reports whether fine-detail leakage (edge correlation, the
// component max-pooling removes) strictly decreases across the stages —
// invariant #5 from DESIGN.md.
func (r *Fig4Result) Monotone() bool {
	for i := 1; i < len(r.Stages); i++ {
		if r.Stages[i].Leak.EdgeCorrelation >= r.Stages[i-1].Leak.EdgeCorrelation {
			return false
		}
	}
	return true
}

// RunFig4 reproduces Fig 4 for one image: it captures the image itself
// ("original"), the activations after the first Conv2D ("conv-l1" —
// Fig 4(b)), and after the full first block including max-pooling ("l1" —
// Fig 4(c)), computing leakage metrics for each. When outDir is non-empty
// the three stages are also written as PNGs (original.png, conv_l1.png,
// l1.png).
//
// model must be a Fig-3 CNN whose first block is Conv2D → ReLU and
// MaxPool2D, which BuildPaperCNN guarantees. It
// runs the pool before the ReLU, which gives the bits of the paper's
// drawn ReLU → MaxPool2D, so "l1" is Fig 4(c)'s activation either way.
func RunFig4(model *nn.PaperCNN, img *tensor.Tensor, outDir string) (*Fig4Result, error) {
	s := img.Shape()
	if len(s) != 3 {
		return nil, fmt.Errorf("privacy: RunFig4 wants a (C,H,W) image, got %v", s)
	}
	if model.MaxCut() < 1 {
		return nil, fmt.Errorf("privacy: model has no first block")
	}
	batch := img.Reshape(append([]int{1}, s...)...)

	layers := model.Net.Layers()
	blockEnd, err := model.CutIndex(1)
	if err != nil {
		return nil, err
	}
	// Forward through the first block, capturing after the first Conv2D
	// and after the block's final layer.
	var afterConv, afterBlock *tensor.Tensor
	x := batch
	for i := 0; i < blockEnd; i++ {
		x = layers[i].Forward(x, false)
		if _, isConv := layers[i].(*nn.Conv2D); isConv && afterConv == nil {
			afterConv = x
		}
	}
	afterBlock = x
	if afterConv == nil {
		return nil, fmt.Errorf("privacy: first block has no Conv2D layer")
	}

	drop := func(t *tensor.Tensor) *tensor.Tensor {
		ts := t.Shape()
		return t.Reshape(ts[1:]...)
	}
	convAct := drop(afterConv)
	blockAct := drop(afterBlock)

	// Original leaks perfectly against itself by construction.
	origLeak := LeakReport{Correlation: 1, PSNRdB: 100, SSIM: 1, EdgeCorrelation: 1}
	convLeak, err := BestChannelLeak(img, convAct)
	if err != nil {
		return nil, err
	}
	blockLeak, err := BestChannelLeak(img, blockAct)
	if err != nil {
		return nil, err
	}

	if outDir != "" {
		if err := SaveImagePNG(img, filepath.Join(outDir, "original.png")); err != nil {
			return nil, err
		}
		if err := SaveActivationGridPNG(convAct, 4, filepath.Join(outDir, "conv_l1.png")); err != nil {
			return nil, err
		}
		if err := SaveActivationGridPNG(blockAct, 4, filepath.Join(outDir, "l1.png")); err != nil {
			return nil, err
		}
	}
	return &Fig4Result{Stages: []Fig4Stage{
		{Name: "original", Leak: origLeak},
		{Name: "conv-l1", Leak: *convLeak},
		{Name: "l1", Leak: *blockLeak},
	}}, nil
}
