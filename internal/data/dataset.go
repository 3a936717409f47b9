// Package data provides the datasets and data plumbing for the
// reproduction: a deterministic procedural image generator (SynthCIFAR)
// standing in for CIFAR-10, whose files the repository does not carry,
// mini-batch iteration, normalisation, and the IID / Dirichlet-skewed
// partitioning used to shard training data across end-systems.
package data

import (
	"fmt"
	"math"

	"github.com/stsl/stsl/internal/mathx"
	"github.com/stsl/stsl/internal/tensor"
)

// Dataset is a labelled image set. X has shape (N, C, H, W); Y holds the
// integer class of each image.
type Dataset struct {
	X *tensor.Tensor
	Y []int
	// Classes is the number of distinct labels.
	Classes int
}

// Len returns the number of examples.
func (d *Dataset) Len() int { return len(d.Y) }

// Validate checks internal consistency.
func (d *Dataset) Validate() error {
	if d.X == nil {
		return fmt.Errorf("data: dataset has nil X")
	}
	s := d.X.Shape()
	if len(s) != 4 {
		return fmt.Errorf("data: dataset X must be rank 4, got %v", s)
	}
	if s[0] != len(d.Y) {
		return fmt.Errorf("data: dataset has %d images but %d labels", s[0], len(d.Y))
	}
	if d.Classes <= 0 {
		return fmt.Errorf("data: dataset has non-positive class count %d", d.Classes)
	}
	for i, y := range d.Y {
		if y < 0 || y >= d.Classes {
			return fmt.Errorf("data: label %d out of range [0,%d) at index %d", y, d.Classes, i)
		}
	}
	return nil
}

// Image returns a copy of example i as a (C, H, W) tensor.
func (d *Dataset) Image(i int) *tensor.Tensor {
	s := d.X.Shape()
	c, h, w := s[1], s[2], s[3]
	vol := c * h * w
	out := tensor.New(c, h, w)
	copy(out.Data(), d.X.Data()[i*vol:(i+1)*vol])
	return out
}

// Subset returns a new dataset containing the examples at the given
// indices (copied, not aliased).
func (d *Dataset) Subset(indices []int) *Dataset {
	x, y := d.gather(nil, indices)
	return &Dataset{X: x, Y: y, Classes: d.Classes}
}

// gather copies the images at indices into x, reused when it already
// has their shape, and returns it together with a fresh slice of their
// labels.
func (d *Dataset) gather(x *tensor.Tensor, indices []int) (*tensor.Tensor, []int) {
	c, h, w := d.X.Dim(1), d.X.Dim(2), d.X.Dim(3)
	vol := c * h * w
	x = tensor.Reuse(x, len(indices), c, h, w)
	y := make([]int, len(indices))
	src, dst := d.X.Data(), x.Data()
	for j, idx := range indices {
		copy(dst[j*vol:(j+1)*vol], src[idx*vol:(idx+1)*vol])
		y[j] = d.Y[idx]
	}
	return x, y
}

// Split divides the dataset into a head of n examples and the remaining
// tail, in order.
func (d *Dataset) Split(n int) (head, tail *Dataset, err error) {
	if n < 0 || n > d.Len() {
		return nil, nil, fmt.Errorf("data: split size %d out of range [0,%d]", n, d.Len())
	}
	headIdx := make([]int, n)
	tailIdx := make([]int, d.Len()-n)
	for i := range headIdx {
		headIdx[i] = i
	}
	for i := range tailIdx {
		tailIdx[i] = n + i
	}
	return d.Subset(headIdx), d.Subset(tailIdx), nil
}

// Shuffle permutes the dataset in place using r.
func (d *Dataset) Shuffle(r *mathx.RNG) {
	s := d.X.Shape()
	vol := s[1] * s[2] * s[3]
	data := d.X.Data()
	tmp := make([]float64, vol)
	r.Shuffle(d.Len(), func(i, j int) {
		copy(tmp, data[i*vol:(i+1)*vol])
		copy(data[i*vol:(i+1)*vol], data[j*vol:(j+1)*vol])
		copy(data[j*vol:(j+1)*vol], tmp)
		d.Y[i], d.Y[j] = d.Y[j], d.Y[i]
	})
}

// ClassCounts returns a histogram of labels.
func (d *Dataset) ClassCounts() []int {
	counts := make([]int, d.Classes)
	for _, y := range d.Y {
		counts[y]++
	}
	return counts
}

// Normalize shifts and scales every channel in place to zero mean and unit
// variance computed over the whole dataset, returning the per-channel
// means and stds so the same transform can be applied to held-out data.
func (d *Dataset) Normalize() (means, stds []float64) {
	s := d.X.Shape()
	n, c, h, w := s[0], s[1], s[2], s[3]
	plane := h * w
	means = make([]float64, c)
	stds = make([]float64, c)
	data := d.X.Data()
	for ch := 0; ch < c; ch++ {
		sum, count := 0.0, 0
		for img := 0; img < n; img++ {
			base := (img*c + ch) * plane
			for i := 0; i < plane; i++ {
				sum += data[base+i]
				count++
			}
		}
		mean := sum / float64(count)
		varSum := 0.0
		for img := 0; img < n; img++ {
			base := (img*c + ch) * plane
			for i := 0; i < plane; i++ {
				dv := data[base+i] - mean
				varSum += dv * dv
			}
		}
		variance := mathx.Clamp(varSum/float64(count), 1e-12, 1e12)
		means[ch], stds[ch] = mean, math.Sqrt(variance)
	}
	d.ApplyNormalization(means, stds)
	return means, stds
}

// ApplyNormalization applies a previously computed per-channel transform.
func (d *Dataset) ApplyNormalization(means, stds []float64) {
	s := d.X.Shape()
	n, c, h, w := s[0], s[1], s[2], s[3]
	plane := h * w
	data := d.X.Data()
	for ch := 0; ch < c; ch++ {
		inv := 1 / stds[ch]
		m := means[ch]
		for img := 0; img < n; img++ {
			base := (img*c + ch) * plane
			for i := 0; i < plane; i++ {
				data[base+i] = (data[base+i] - m) * inv
			}
		}
	}
}
