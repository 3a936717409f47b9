package data

import (
	"math"
	"testing"
)

func TestSynthCIFARDeterminism(t *testing.T) {
	g := SynthCIFAR{}
	a, err := g.Generate(20, 42)
	if err != nil {
		t.Fatal(err)
	}
	b, err := g.Generate(20, 42)
	if err != nil {
		t.Fatal(err)
	}
	if !a.X.Equal(b.X, 0) {
		t.Fatal("same seed produced different images")
	}
	for i := range a.Y {
		if a.Y[i] != b.Y[i] {
			t.Fatal("same seed produced different labels")
		}
	}
	c, err := g.Generate(20, 43)
	if err != nil {
		t.Fatal(err)
	}
	if a.X.Equal(c.X, 0) {
		t.Fatal("different seeds produced identical images")
	}
}

func TestSynthCIFARPixelRange(t *testing.T) {
	ds, err := (SynthCIFAR{}).Generate(50, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range ds.X.Data() {
		if v < 0 || v > 1 {
			t.Fatalf("pixel %v out of [0,1]", v)
		}
	}
}

func TestSynthCIFARGeometry(t *testing.T) {
	ds, err := (SynthCIFAR{}).Generate(5, 1)
	if err != nil {
		t.Fatal(err)
	}
	s := ds.X.Shape()
	if s[0] != 5 || s[1] != 3 || s[2] != 32 || s[3] != 32 {
		t.Fatalf("shape = %v", s)
	}
	if ds.Classes != 10 {
		t.Fatalf("classes = %d", ds.Classes)
	}
}

func TestSynthCIFARBalanced(t *testing.T) {
	ds, err := (SynthCIFAR{}).GenerateBalanced(7, 1)
	if err != nil {
		t.Fatal(err)
	}
	if ds.Len() != 70 {
		t.Fatalf("len = %d", ds.Len())
	}
	for class, count := range ds.ClassCounts() {
		if count != 7 {
			t.Fatalf("class %d has %d examples, want 7", class, count)
		}
	}
}

func TestSynthCIFARClassSeparability(t *testing.T) {
	// Same-class images must be more similar (on average) than
	// cross-class images, otherwise the workload cannot drive Table I.
	g := SynthCIFAR{Noise: 0.05}
	ds, err := g.GenerateBalanced(6, 3)
	if err != nil {
		t.Fatal(err)
	}
	dist := func(i, j int) float64 {
		a, b := ds.Image(i), ds.Image(j)
		d := a.Sub(b)
		return math.Sqrt(d.Dot(d))
	}
	var same, cross []float64
	for i := 0; i < ds.Len(); i++ {
		for j := i + 1; j < ds.Len(); j++ {
			if ds.Y[i] == ds.Y[j] {
				same = append(same, dist(i, j))
			} else {
				cross = append(cross, dist(i, j))
			}
		}
	}
	meanOf := func(xs []float64) float64 {
		s := 0.0
		for _, x := range xs {
			s += x
		}
		return s / float64(len(xs))
	}
	if ms, mc := meanOf(same), meanOf(cross); ms >= mc {
		t.Fatalf("classes not separable: same-class dist %v ≥ cross-class %v", ms, mc)
	}
}

func TestSynthCIFARNoiseKnob(t *testing.T) {
	quiet, err := SynthCIFAR{Noise: 0.01}.Generate(10, 5)
	if err != nil {
		t.Fatal(err)
	}
	loud, err := SynthCIFAR{Noise: 0.3}.Generate(10, 5)
	if err != nil {
		t.Fatal(err)
	}
	// Higher noise ⇒ higher high-frequency energy. Compare adjacent-pixel
	// differences.
	hf := func(ds *Dataset) float64 {
		s := ds.X.Shape()
		data := ds.X.Data()
		total := 0.0
		w := s[3]
		for i := 0; i+1 < len(data); i++ {
			if (i+1)%w != 0 {
				d := data[i+1] - data[i]
				total += math.Abs(d)
			}
		}
		return total
	}
	if hf(loud) <= hf(quiet) {
		t.Fatal("noise knob has no effect")
	}
}

func TestSynthCIFARRejectsBadConfig(t *testing.T) {
	if _, err := (SynthCIFAR{Classes: 1}).Generate(5, 1); err == nil {
		t.Fatal("1 class accepted")
	}
	if _, err := (SynthCIFAR{Classes: 11}).Generate(5, 1); err == nil {
		t.Fatal("11 classes accepted")
	}
	if _, err := (SynthCIFAR{}).Generate(-1, 1); err == nil {
		t.Fatal("negative count accepted")
	}
}
