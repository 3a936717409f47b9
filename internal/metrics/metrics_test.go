package metrics

import (
	"strings"
	"testing"
)

func TestConfusionMatrix(t *testing.T) {
	cm, err := NewConfusionMatrix(3)
	if err != nil {
		t.Fatal(err)
	}
	if err := cm.Add([]int{0, 1, 1, 2}, []int{0, 1, 2, 2}); err != nil {
		t.Fatal(err)
	}
	if cm.Total() != 4 {
		t.Fatalf("Total = %d", cm.Total())
	}
	if cm.Count(2, 1) != 1 || cm.Count(0, 0) != 1 {
		t.Fatal("counts wrong")
	}
	if acc := cm.Accuracy(); acc != 0.75 {
		t.Fatalf("Accuracy = %v", acc)
	}
	recalls := cm.PerClassRecall()
	if recalls[0] != 1 || recalls[1] != 1 || recalls[2] != 0.5 {
		t.Fatalf("recalls = %v", recalls)
	}
	if !strings.Contains(cm.String(), "recall") {
		t.Fatal("String missing recall column")
	}
}

func TestConfusionMatrixValidation(t *testing.T) {
	if _, err := NewConfusionMatrix(0); err == nil {
		t.Fatal("zero classes accepted")
	}
	cm, _ := NewConfusionMatrix(2)
	if err := cm.Add([]int{5}, []int{0}); err == nil {
		t.Fatal("out-of-range pred accepted")
	}
	if err := cm.Add([]int{0}, []int{0, 1}); err == nil {
		t.Fatal("length mismatch accepted")
	}
	// Empty matrix accuracy is 0, not NaN.
	if cm.Accuracy() != 0 {
		t.Fatal("empty accuracy not 0")
	}
}

func TestLossCurveWindows(t *testing.T) {
	lc, err := NewLossCurve(3)
	if err != nil {
		t.Fatal(err)
	}
	if lc.Last() != 0 {
		t.Fatal("fresh curve Last != 0")
	}
	for i := 1; i <= 6; i++ {
		lc.Observe(float64(i))
	}
	if len(lc.Entries) != 2 {
		t.Fatalf("entries = %d", len(lc.Entries))
	}
	if lc.Entries[0].Loss != 2 || lc.Entries[1].Loss != 5 {
		t.Fatalf("window means = %+v", lc.Entries)
	}
	if lc.Entries[1].Step != 6 {
		t.Fatalf("step = %d", lc.Entries[1].Step)
	}
	if lc.Last() != 5 {
		t.Fatalf("Last = %v", lc.Last())
	}
	if _, err := NewLossCurve(0); err == nil {
		t.Fatal("zero window accepted")
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("My Title", "name", "value")
	tb.AddRow("alpha", 1.23456)
	tb.AddRow("a-much-longer-name", 42)
	out := tb.String()
	for _, want := range []string{"My Title", "name", "alpha", "1.23", "a-much-longer-name", "42"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table missing %q:\n%s", want, out)
		}
	}
	csv := tb.CSV()
	if !strings.HasPrefix(csv, "name,value\n") {
		t.Fatalf("csv header wrong: %q", csv)
	}
	if !strings.Contains(csv, "alpha,1.23") {
		t.Fatalf("csv row missing: %q", csv)
	}
}
