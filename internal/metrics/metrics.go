// Package metrics provides the evaluation metrics and result-table
// rendering shared by the experiment harness: confusion matrices (with
// their accuracy and per-class recall) and loss-curve tracking.
package metrics

import (
	"fmt"
	"strings"
)

// ConfusionMatrix counts (true class, predicted class) pairs.
type ConfusionMatrix struct {
	classes int
	counts  []int // row-major (true, pred)
}

// NewConfusionMatrix builds an empty matrix for the given class count.
func NewConfusionMatrix(classes int) (*ConfusionMatrix, error) {
	if classes <= 0 {
		return nil, fmt.Errorf("metrics: non-positive class count %d", classes)
	}
	return &ConfusionMatrix{classes: classes, counts: make([]int, classes*classes)}, nil
}

// Add records a batch of predictions.
func (c *ConfusionMatrix) Add(pred, labels []int) error {
	if len(pred) != len(labels) {
		return fmt.Errorf("metrics: %d predictions vs %d labels", len(pred), len(labels))
	}
	for i := range pred {
		if labels[i] < 0 || labels[i] >= c.classes || pred[i] < 0 || pred[i] >= c.classes {
			return fmt.Errorf("metrics: class out of range at %d (true %d, pred %d)", i, labels[i], pred[i])
		}
		c.counts[labels[i]*c.classes+pred[i]]++
	}
	return nil
}

// Count returns the number of examples of trueClass predicted as predClass.
func (c *ConfusionMatrix) Count(trueClass, predClass int) int {
	return c.counts[trueClass*c.classes+predClass]
}

// Total returns the number of recorded examples.
func (c *ConfusionMatrix) Total() int {
	n := 0
	for _, v := range c.counts {
		n += v
	}
	return n
}

// Accuracy returns overall accuracy.
func (c *ConfusionMatrix) Accuracy() float64 {
	total := c.Total()
	if total == 0 {
		return 0
	}
	diag := 0
	for i := 0; i < c.classes; i++ {
		diag += c.counts[i*c.classes+i]
	}
	return float64(diag) / float64(total)
}

// PerClassRecall returns recall (diagonal / row sum) per true class;
// classes with no examples report NaN-free 0.
func (c *ConfusionMatrix) PerClassRecall() []float64 {
	out := make([]float64, c.classes)
	for i := 0; i < c.classes; i++ {
		row := 0
		for j := 0; j < c.classes; j++ {
			row += c.counts[i*c.classes+j]
		}
		if row > 0 {
			out[i] = float64(c.counts[i*c.classes+i]) / float64(row)
		}
	}
	return out
}

// String renders the matrix with per-class recall.
func (c *ConfusionMatrix) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%6s", "t\\p")
	for j := 0; j < c.classes; j++ {
		fmt.Fprintf(&b, "%6d", j)
	}
	fmt.Fprintf(&b, "%8s\n", "recall")
	recalls := c.PerClassRecall()
	for i := 0; i < c.classes; i++ {
		fmt.Fprintf(&b, "%6d", i)
		for j := 0; j < c.classes; j++ {
			fmt.Fprintf(&b, "%6d", c.counts[i*c.classes+j])
		}
		fmt.Fprintf(&b, "%8.3f\n", recalls[i])
	}
	return b.String()
}

// LossCurve tracks training loss over steps with bounded memory by
// averaging within fixed-size windows.
type LossCurve struct {
	window  int
	buf     []float64
	Entries []LossEntry
	step    int
}

// LossEntry is one averaged window.
type LossEntry struct {
	Step int
	Loss float64
}

// NewLossCurve constructs a curve with the given averaging window
// (≥1; 1 keeps every point).
func NewLossCurve(window int) (*LossCurve, error) {
	if window <= 0 {
		return nil, fmt.Errorf("metrics: non-positive window %d", window)
	}
	return &LossCurve{window: window}, nil
}

// Observe records one training-step loss.
func (lc *LossCurve) Observe(loss float64) {
	lc.step++
	lc.buf = append(lc.buf, loss)
	if len(lc.buf) >= lc.window {
		s := 0.0
		for _, v := range lc.buf {
			s += v
		}
		lc.Entries = append(lc.Entries, LossEntry{Step: lc.step, Loss: s / float64(len(lc.buf))})
		lc.buf = lc.buf[:0]
	}
}

// Last returns the most recent averaged loss, or 0 with no entries.
func (lc *LossCurve) Last() float64 {
	if len(lc.Entries) == 0 {
		return 0
	}
	return lc.Entries[len(lc.Entries)-1].Loss
}
