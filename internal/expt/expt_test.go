package expt

import (
	"math"
	"strings"
	"testing"
	"time"

	"github.com/stsl/stsl/internal/nn"
)

func TestScaleByName(t *testing.T) {
	for _, name := range []string{"tiny", "small", "paper"} {
		s, err := ScaleByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if s.Name != name {
			t.Fatalf("scale name %q", s.Name)
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("scale %s invalid: %v", name, err)
		}
	}
	if _, err := ScaleByName("galactic"); err == nil {
		t.Fatal("unknown scale accepted")
	}
}

func TestScaleValidateRejects(t *testing.T) {
	s := TinyScale()
	s.TrainPerClass = 0
	if err := s.Validate(); err == nil {
		t.Fatal("zero train size accepted")
	}
	s = TinyScale()
	s.LR = 0
	if err := s.Validate(); err == nil {
		t.Fatal("zero LR accepted")
	}
}

func TestRunTableITiny(t *testing.T) {
	res, err := RunTableI(TinyScale(), 1)
	if err != nil {
		t.Fatal(err)
	}
	// Tiny model has 2 blocks → rows: Nothing, L1, L1-L2.
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	if res.Rows[0].Label != "Nothing" || res.Rows[1].Label != "L1" || res.Rows[2].Label != "L1-L2" {
		t.Fatalf("labels = %+v", res.Rows)
	}
	for _, r := range res.Rows {
		if r.Accuracy < 0 || r.Accuracy > 1 {
			t.Fatalf("accuracy %v out of range", r.Accuracy)
		}
	}
	// Paper reference values present for matching cuts.
	if res.Rows[0].PaperAccuracy != 0.7109 {
		t.Fatalf("paper reference wrong: %v", res.Rows[0].PaperAccuracy)
	}
	out := res.Table.String()
	for _, want := range []string{"Table I", "Nothing", "L1-L2", "71.09"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table missing %q:\n%s", want, out)
		}
	}
	if !strings.Contains(res.Table.CSV(), "layers-at-end-systems,") {
		t.Fatal("CSV header missing")
	}
	// The paper reports no cut-5 row: its cell is a gap, not 0.00.
	if got := paperCell(5); got != "—" {
		t.Fatalf("paper cell for cut 5 = %v, want —", got)
	}
}

func TestRunFig1Tiny(t *testing.T) {
	res, err := RunFig1(TinyScale(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.ServerSteps <= 0 {
		t.Fatal("no server steps")
	}
	if res.SplitAccuracy < 0 || res.SplitAccuracy > 1 {
		t.Fatalf("split accuracy %v", res.SplitAccuracy)
	}
	if !strings.Contains(res.Table.String(), "split(cut=1)") {
		t.Fatal("table missing split row")
	}
}

func TestRunFig2Tiny(t *testing.T) {
	res, err := RunFig2(TinyScale(), 3, []int{2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.StepsPerClient) != 2 {
		t.Fatalf("results for %d sweeps", len(res.StepsPerClient))
	}
	for i, steps := range res.StepsPerClient {
		if len(steps) != res.ClientCounts[i] {
			t.Fatalf("sweep %d: %d step entries for %d clients", i, len(steps), res.ClientCounts[i])
		}
	}
	// With a shared server, queue must have buffered at least one item at
	// some point (multiple clients racing).
	if res.MaxOccupancy[1] < 1 {
		t.Fatalf("queue never occupied: %v", res.MaxOccupancy)
	}
}

func TestRunFig3PaperArchitecture(t *testing.T) {
	res, err := RunFig3(nn.PaperCNNConfig{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Fig 3 structure: 5 cuts, final flat dim 256, 10-class head.
	if len(res.CutShapes) != 6 {
		t.Fatalf("cut shapes = %v", res.CutShapes)
	}
	s5 := res.CutShapes[5]
	if s5[0] != 256 || s5[1] != 1 || s5[2] != 1 {
		t.Fatalf("cut-5 shape = %v", s5)
	}
	s0 := res.CutShapes[0]
	if s0[0] != 3 || s0[1] != 32 {
		t.Fatalf("cut-0 shape = %v", s0)
	}
	if !strings.Contains(res.Summary, "conv5") || !strings.Contains(res.Summary, "fc2") {
		t.Fatal("summary incomplete")
	}
	// The exact Fig-3 CNN parameter count is fixed; assert it as an
	// architecture regression guard.
	if res.ParamCount != 529322 {
		t.Fatalf("param count = %d", res.ParamCount)
	}
}

func TestRunFig4Tiny(t *testing.T) {
	res, err := RunFig4(TinyScale(), 4, 4, "")
	if err != nil {
		t.Fatal(err)
	}
	// Stage 0 is the original: perfect leak.
	if res.MeanEdgeCorr[0] != 1 || res.MeanCorr[0] != 1 {
		t.Fatalf("original stage leak %v / %v", res.MeanEdgeCorr[0], res.MeanCorr[0])
	}
	// Pooling must reduce mean fine-detail leakage vs conv alone.
	if res.MeanEdgeCorr[2] >= res.MeanEdgeCorr[1] {
		t.Fatalf("pooled edge leak %v not below conv %v", res.MeanEdgeCorr[2], res.MeanEdgeCorr[1])
	}
	if !strings.Contains(res.Table.String(), "maxpool") {
		t.Fatal("table missing pooled stage")
	}
}

func TestRunAttackTiny(t *testing.T) {
	res, err := RunAttack(TinyScale(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 || res.Rows[0].Cut != 1 || res.Rows[1].Cut != 2 {
		t.Fatalf("rows = %+v", res.Rows)
	}
	for _, r := range res.Rows {
		if math.IsNaN(r.PSNR) || math.IsInf(r.PSNR, 0) || math.IsNaN(r.Correlation) {
			t.Fatalf("cut %d: PSNR %v, correlation %v", r.Cut, r.PSNR, r.Correlation)
		}
	}
	// The verdict is read off the rows, never assumed.
	a, b := res.Rows[0], res.Rows[1]
	want := "no consistent ordering"
	switch {
	case b.PSNR < a.PSNR && b.Correlation < a.Correlation:
		want = "deeper cuts leak less"
	case b.PSNR > a.PSNR && b.Correlation > a.Correlation:
		want = "deeper cuts leak more"
	}
	if !strings.HasPrefix(res.Verdict, want) {
		t.Fatalf("verdict %q for rows %+v, want %q", res.Verdict, res.Rows, want)
	}
	// Each ordering gets its own verdict, whichever one the seed measured.
	for _, tc := range []struct {
		psnr, corr float64
		want       string
	}{
		{26.7, 0.408, "deeper cuts leak less"},
		{28.0, 0.500, "deeper cuts leak more"},
		{26.7, 0.500, "no consistent ordering"},
		{27.9, 0.408, "no consistent ordering"},
	} {
		rows := []AttackRow{{Cut: 1, PSNR: 27.9, Correlation: 0.494}, {Cut: 2, PSNR: tc.psnr, Correlation: tc.corr}}
		if got := attackVerdict(rows); !strings.HasPrefix(got, tc.want) {
			t.Errorf("cut 2 at %.1f dB / %.3f: verdict %q, want %q", tc.psnr, tc.corr, got, tc.want)
		}
	}
	if !strings.Contains(res.Table.String(), "PSNR") {
		t.Fatal("table missing PSNR column")
	}
}

func TestRunQueueAblationTiny(t *testing.T) {
	s := TinyScale()
	s.Clients = 3
	res, err := RunQueueAblation(s, 5, []string{"fifo", "sync-rounds"}, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Outcomes) != 2 {
		t.Fatalf("outcomes = %d", len(res.Outcomes))
	}
	fifo, sync := res.Outcomes[0], res.Outcomes[1]
	if fifo.Policy != "fifo" || sync.Policy != "sync-rounds" {
		t.Fatalf("policy order %v %v", fifo.Policy, sync.Policy)
	}
	// FIFO must starve the far client relative to the best near client.
	maxNear := 0
	for _, v := range fifo.StepsPerClient[1:] {
		if v > maxNear {
			maxNear = v
		}
	}
	if fifo.StepsPerClient[0]*3 > maxNear {
		t.Fatalf("FIFO far/near steps %d/%d — no starvation", fifo.StepsPerClient[0], maxNear)
	}
	// Sync rounds must equalise contributions to within one step.
	for _, v := range sync.StepsPerClient[1:] {
		d := sync.StepsPerClient[0] - v
		if d < -1 || d > 1 {
			t.Fatalf("sync-rounds steps unbalanced: %v", sync.StepsPerClient)
		}
	}
}
