package data

import (
	"fmt"

	"github.com/stsl/stsl/internal/mathx"
	"github.com/stsl/stsl/internal/tensor"
)

// Batch is one training mini-batch.
type Batch struct {
	X *tensor.Tensor // (B, C, H, W)
	Y []int
}

// Batcher iterates a dataset in mini-batches. When constructed with an
// RNG, the visit order is reshuffled at the start of every epoch.
type Batcher struct {
	ds        *Dataset
	batchSize int
	rng       *mathx.RNG
	order     []int
	cursor    int
	// x is the images buffer every Next fills.
	x *tensor.Tensor
	// DropLast, when set, skips a final batch smaller than batchSize.
	DropLast bool
}

// NewBatcher constructs a batcher. rng may be nil for sequential order.
func NewBatcher(ds *Dataset, batchSize int, rng *mathx.RNG) (*Batcher, error) {
	if err := ds.Validate(); err != nil {
		return nil, err
	}
	if batchSize <= 0 {
		return nil, fmt.Errorf("data: batch size must be positive, got %d", batchSize)
	}
	b := &Batcher{ds: ds, batchSize: batchSize, rng: rng}
	b.reset()
	return b, nil
}

func (b *Batcher) reset() {
	n := b.ds.Len()
	if b.order == nil {
		b.order = make([]int, n)
		for i := range b.order {
			b.order[i] = i
		}
	}
	if b.rng != nil {
		b.rng.Shuffle(n, func(i, j int) { b.order[i], b.order[j] = b.order[j], b.order[i] })
	}
	b.cursor = 0
}

// BatchesPerEpoch returns the number of batches one epoch yields.
func (b *Batcher) BatchesPerEpoch() int {
	n := b.ds.Len() / b.batchSize
	if !b.DropLast && b.ds.Len()%b.batchSize != 0 {
		n++
	}
	return n
}

// Next returns the next mini-batch and false when the epoch is exhausted
// (at which point the batcher resets, reshuffling if it has an RNG). The
// batch's X is the batcher's own buffer, overwritten by the next call;
// its Y is a fresh slice the caller may keep.
func (b *Batcher) Next() (Batch, bool) {
	n := b.ds.Len()
	if b.cursor >= n {
		b.reset()
		return Batch{}, false
	}
	end := b.cursor + b.batchSize
	if end > n {
		if b.DropLast {
			b.reset()
			return Batch{}, false
		}
		end = n
	}
	idx := b.order[b.cursor:end]
	b.cursor = end
	var y []int
	b.x, y = b.ds.gather(b.x, idx)
	return Batch{X: b.x, Y: y}, true
}

// DropScratch frees the images buffer; the next Next allocates it again.
// Call it when a batcher goes idle but stays referenced.
func (b *Batcher) DropScratch() { b.x = nil }

// Epoch collects all batches of one full epoch, each with its own copy
// of the images (convenience for tests and small experiments; training
// loops should stream with Next).
func (b *Batcher) Epoch() []Batch {
	var out []Batch
	for {
		batch, ok := b.Next()
		if !ok {
			return out
		}
		out = append(out, Batch{X: batch.X.Clone(), Y: batch.Y})
	}
}
