package data

import (
	"fmt"
	"math"

	"github.com/stsl/stsl/internal/mathx"
	"github.com/stsl/stsl/internal/tensor"
)

// SynthCIFAR is a deterministic, procedural stand-in for CIFAR-10: 10
// visually distinct parametric texture classes rendered as C×H×W images in
// [0,1] with per-sample geometry, colour jitter and additive noise. The
// generator exists because the repository does not carry the CIFAR-10
// files. See DESIGN.md §2 for the substitution argument.
//
// Class palette (all randomised per sample):
//
//	0 horizontal gradient   5 diagonal stripes
//	1 vertical stripes      6 gaussian blobs
//	2 checkerboard          7 plus/cross shape
//	3 concentric rings      8 half-plane split
//	4 filled disc           9 colour-biased static
type SynthCIFAR struct {
	// Height, Width, Channels describe the image geometry
	// (default 32×32×3).
	Height, Width, Channels int
	// Noise is the stddev of the additive gaussian pixel noise
	// (default 0.08). Higher values make classification harder.
	Noise float64
	// Classes is fixed at 10 for the paper's workload but kept
	// configurable for small test fixtures (must be ≤ 10).
	Classes int
}

func (g SynthCIFAR) defaults() SynthCIFAR {
	if g.Height == 0 {
		g.Height = 32
	}
	if g.Width == 0 {
		g.Width = 32
	}
	if g.Channels == 0 {
		g.Channels = 3
	}
	if g.Noise == 0 {
		g.Noise = 0.08
	}
	if g.Classes == 0 {
		g.Classes = 10
	}
	return g
}

// Generate renders n examples with labels drawn uniformly from the class
// set, deterministically from seed.
func (g SynthCIFAR) Generate(n int, seed uint64) (*Dataset, error) {
	g = g.defaults()
	if g.Classes < 2 || g.Classes > 10 {
		return nil, fmt.Errorf("data: SynthCIFAR supports 2..10 classes, got %d", g.Classes)
	}
	if n < 0 {
		return nil, fmt.Errorf("data: negative sample count %d", n)
	}
	r := mathx.NewRNG(seed)
	x := tensor.New(n, g.Channels, g.Height, g.Width)
	y := make([]int, n)
	for i := 0; i < n; i++ {
		label := r.Intn(g.Classes)
		y[i] = label
		g.render(x, i, label, r.Split())
	}
	ds := &Dataset{X: x, Y: y, Classes: g.Classes}
	return ds, ds.Validate()
}

// GenerateBalanced renders exactly perClass examples of every class,
// shuffled, deterministically from seed.
func (g SynthCIFAR) GenerateBalanced(perClass int, seed uint64) (*Dataset, error) {
	g = g.defaults()
	if g.Classes < 2 || g.Classes > 10 {
		return nil, fmt.Errorf("data: SynthCIFAR supports 2..10 classes, got %d", g.Classes)
	}
	if perClass < 0 {
		return nil, fmt.Errorf("data: negative per-class count %d", perClass)
	}
	n := perClass * g.Classes
	r := mathx.NewRNG(seed)
	x := tensor.New(n, g.Channels, g.Height, g.Width)
	y := make([]int, n)
	for i := 0; i < n; i++ {
		label := i % g.Classes
		y[i] = label
		g.render(x, i, label, r.Split())
	}
	ds := &Dataset{X: x, Y: y, Classes: g.Classes}
	ds.Shuffle(r)
	return ds, ds.Validate()
}

// render paints example idx of the batch tensor in place.
func (g SynthCIFAR) render(x *tensor.Tensor, idx, label int, r *mathx.RNG) {
	h, w, c := g.Height, g.Width, g.Channels
	vol := c * h * w
	img := x.Data()[idx*vol : (idx+1)*vol]

	// Per-sample palette: a foreground and background colour with jitter.
	fg := make([]float64, c)
	bg := make([]float64, c)
	for ch := 0; ch < c; ch++ {
		// Class-correlated hue plus jitter keeps classes separable but
		// not trivially so.
		fg[ch] = mathx.Clamp(0.5+0.4*math.Sin(float64(label)+float64(ch)*2.1)+r.Range(-0.15, 0.15), 0, 1)
		bg[ch] = mathx.Clamp(0.5-0.3*math.Cos(float64(label)*1.3+float64(ch))+r.Range(-0.15, 0.15), 0, 1)
	}

	// Geometry jitter shared by the pattern functions.
	phase := r.Range(0, 2*math.Pi)
	freq := r.Range(2.5, 4.5)
	cx := r.Range(0.3, 0.7) * float64(w)
	cy := r.Range(0.3, 0.7) * float64(h)
	radius := r.Range(0.2, 0.35) * float64(minInt(h, w))
	thick := r.Range(0.08, 0.16) * float64(minInt(h, w))
	slope := r.Range(0.6, 1.6)

	// blobs for class 6.
	type blob struct{ bx, by, br float64 }
	blobs := make([]blob, 3)
	for i := range blobs {
		blobs[i] = blob{
			bx: r.Range(0.15, 0.85) * float64(w),
			by: r.Range(0.15, 0.85) * float64(h),
			br: r.Range(0.10, 0.22) * float64(minInt(h, w)),
		}
	}

	for yPix := 0; yPix < h; yPix++ {
		for xPix := 0; xPix < w; xPix++ {
			// t in [0,1] is the foreground intensity of this pixel under
			// the class pattern.
			var t float64
			fx, fy := float64(xPix), float64(yPix)
			switch label {
			case 0: // horizontal gradient
				t = fx / float64(w-1)
			case 1: // vertical stripes
				t = 0.5 + 0.5*math.Sin(2*math.Pi*freq*fx/float64(w)+phase)
			case 2: // checkerboard
				cell := float64(minInt(h, w)) / freq
				if (int(fx/cell)+int(fy/cell))%2 == 0 {
					t = 1
				}
			case 3: // concentric rings
				d := math.Hypot(fx-cx, fy-cy)
				t = 0.5 + 0.5*math.Sin(2*math.Pi*d/(2.2*thick)+phase)
			case 4: // filled disc
				if math.Hypot(fx-cx, fy-cy) < radius {
					t = 1
				}
			case 5: // diagonal stripes
				t = 0.5 + 0.5*math.Sin(2*math.Pi*freq*(fx+slope*fy)/float64(w)+phase)
			case 6: // gaussian blobs
				for _, b := range blobs {
					d2 := (fx-b.bx)*(fx-b.bx) + (fy-b.by)*(fy-b.by)
					t += math.Exp(-d2 / (2 * b.br * b.br))
				}
				t = mathx.Clamp(t, 0, 1)
			case 7: // plus / cross
				if math.Abs(fx-cx) < thick || math.Abs(fy-cy) < thick {
					t = 1
				}
			case 8: // half-plane split along a jittered diagonal
				if fy > slope*(fx-cx)+cy {
					t = 1
				}
			case 9: // colour-biased static
				t = r.Float64()
			}
			for ch := 0; ch < c; ch++ {
				v := bg[ch] + (fg[ch]-bg[ch])*t + r.NormScaled(0, g.Noise)
				img[ch*h*w+yPix*w+xPix] = mathx.Clamp(v, 0, 1)
			}
		}
	}
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
