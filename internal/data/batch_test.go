package data

import (
	"testing"

	"github.com/stsl/stsl/internal/mathx"
)

func TestBatcherCoversEpochExactlyOnce(t *testing.T) {
	ds := tinyDataset(t, 23)
	b, err := NewBatcher(ds, 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := b.BatchesPerEpoch(); got != 5 {
		t.Fatalf("BatchesPerEpoch = %d, want 5 (4 full + 1 remainder)", got)
	}
	total := 0
	batches := b.Epoch()
	if len(batches) != 5 {
		t.Fatalf("epoch yielded %d batches", len(batches))
	}
	for i, batch := range batches {
		total += len(batch.Y)
		if i < 4 && len(batch.Y) != 5 {
			t.Fatalf("batch %d size = %d", i, len(batch.Y))
		}
	}
	if total != 23 {
		t.Fatalf("epoch covered %d examples, want 23", total)
	}
}

func TestBatcherDropLast(t *testing.T) {
	ds := tinyDataset(t, 23)
	b, err := NewBatcher(ds, 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	b.DropLast = true
	if got := b.BatchesPerEpoch(); got != 4 {
		t.Fatalf("BatchesPerEpoch = %d, want 4", got)
	}
	if got := len(b.Epoch()); got != 4 {
		t.Fatalf("epoch yielded %d batches", got)
	}
}

// TestBatcherReusesImages: Next fills one images buffer, which the next
// call overwrites, while its labels and Epoch's batches are the
// caller's to keep; DropScratch lets the buffer go without changing a
// batch.
func TestBatcherReusesImages(t *testing.T) {
	ds := tinyDataset(t, 12)
	b, err := NewBatcher(ds, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	first, _ := b.Next()
	labels := append([]int(nil), first.Y...)
	second, _ := b.Next()
	if second.X != first.X {
		t.Fatal("Next allocated a new images buffer for a batch of the same shape")
	}
	for i, y := range labels {
		if first.Y[i] != y {
			t.Fatal("the next batch overwrote the previous batch's labels")
		}
	}
	b.DropScratch()
	third, _ := b.Next()
	if third.X == second.X {
		t.Fatal("DropScratch kept the images buffer")
	}
	for i := range third.X.Data() {
		if third.X.Data()[i] != ds.X.Data()[8*192+i] {
			t.Fatalf("image element %d after DropScratch differs from the dataset", i)
		}
	}
	if _, ok := b.Next(); ok {
		t.Fatal("an exhausted epoch yielded a batch")
	}
	epoch := b.Epoch()
	if epoch[0].X == epoch[1].X {
		t.Fatal("Epoch's batches share one images buffer")
	}
}

func TestBatcherSequentialOrderWithoutRNG(t *testing.T) {
	ds := tinyDataset(t, 10)
	b, err := NewBatcher(ds, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	batch, ok := b.Next()
	if !ok {
		t.Fatal("no first batch")
	}
	for i := range batch.Y {
		if batch.Y[i] != ds.Y[i] {
			t.Fatal("sequential batcher reordered data")
		}
	}
}

func TestBatcherShufflesBetweenEpochs(t *testing.T) {
	ds := tinyDataset(t, 40)
	b, err := NewBatcher(ds, 40, mathx.NewRNG(3))
	if err != nil {
		t.Fatal(err)
	}
	first := b.Epoch()[0]
	second := b.Epoch()[0]
	sameOrder := true
	for i := range first.Y {
		if first.X.Data()[i*192] != second.X.Data()[i*192] {
			sameOrder = false
			break
		}
	}
	if sameOrder {
		t.Fatal("batcher did not reshuffle between epochs")
	}
	// Both epochs still cover the same multiset of labels.
	c1, c2 := make([]int, 4), make([]int, 4)
	for i := range first.Y {
		c1[first.Y[i]]++
		c2[second.Y[i]]++
	}
	for i := range c1 {
		if c1[i] != c2[i] {
			t.Fatal("epochs cover different label multisets")
		}
	}
}

func TestBatcherRejectsBadConfig(t *testing.T) {
	ds := tinyDataset(t, 10)
	if _, err := NewBatcher(ds, 0, nil); err == nil {
		t.Fatal("zero batch size accepted")
	}
	if _, err := NewBatcher(&Dataset{}, 4, nil); err == nil {
		t.Fatal("invalid dataset accepted")
	}
}
