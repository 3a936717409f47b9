package main

import (
	"encoding/json"
	"io"
	"math"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"github.com/stsl/stsl/internal/core"
	"github.com/stsl/stsl/internal/tensor"
	"github.com/stsl/stsl/internal/transport"
)

func TestPercentiles(t *testing.T) {
	vs := []float64{10, 1, 4, 3, 2, 9, 8, 7, 6, 5}
	if got := median(vs); got != 5.5 {
		t.Errorf("median = %v, want 5.5", got)
	}
	if got := percentile(vs, 0); got != 1 {
		t.Errorf("p0 = %v, want 1", got)
	}
	if got := percentile(vs, 100); got != 10 {
		t.Errorf("p100 = %v, want 10", got)
	}
	if got := percentile(vs, 95); math.Abs(got-9.55) > 1e-12 {
		t.Errorf("p95 = %v, want 9.55", got)
	}
	if got := median([]float64{3}); got != 3 {
		t.Errorf("median of one = %v", got)
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing should be NaN")
	}
	if vs[0] != 10 {
		t.Error("percentile reordered its input")
	}
}

func TestStatQuartiles(t *testing.T) {
	s := newStat("ms", []float64{5, 1, 4, 2, 3})
	if s.Median != 3 || s.Q1 != 2 || s.Q3 != 4 || math.Abs(s.iqrFrac()-2.0/3) > 1e-12 {
		t.Errorf("stat = %+v, iqrFrac %v; want median 3, quartiles 2 and 4", s, s.iqrFrac())
	}
	if one := newStat("ms", []float64{7}); one.Q1 != 7 || one.Q3 != 7 || one.iqrFrac() != 0 {
		t.Errorf("stat of one value = %+v", one)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "session", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "b", Start: 20, End: 50},  // overlaps a: 30..50 is new
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120}, // clipped to the parent's end
		{ID: 5, Parent: 2, Name: "leaf", Start: 12, End: 18},
		{ID: 6, Name: "lonely", Start: 5, End: 9},
	}
	got := selfTimes(spans)
	want := map[int]time.Duration{1: 50, 2: 14, 3: 30, 4: 30, 5: 6, 6: 4}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}

func TestRecorderMergeRenumbers(t *testing.T) {
	epoch := time.Unix(0, 0)
	a, b := &recorder{epoch: epoch}, &recorder{epoch: epoch}
	a.add(0, 7, spanSession, epoch, epoch.Add(5))
	p := b.add(0, 8, spanSession, epoch, epoch.Add(9))
	b.add(p, 8, spanJoin, epoch.Add(1), epoch.Add(2))
	a.merge(b)
	if len(a.spans) != 3 || a.spans[1].ID != 2 || a.spans[2].ID != 3 || a.spans[2].Parent != 2 {
		t.Errorf("merged spans = %+v", a.spans)
	}
	if got := durationsMs(a.spans, spanSession); len(got) != 2 {
		t.Errorf("durationsMs found %d session spans, want 2", len(got))
	}
}

func TestRotate(t *testing.T) {
	ws := []workload{{Name: "a"}, {Name: "b"}, {Name: "c"}, {Name: "d"}}
	first := map[string]int{}
	for r := 0; r < 8; r++ {
		got := rotate(ws, r)
		first[got[0].Name]++
		if len(got) != 4 || got[1].Name != ws[(r+1)%4].Name {
			t.Errorf("rotate by %d = %v", r, got)
		}
	}
	for _, w := range ws {
		if first[w.Name] != 2 {
			t.Errorf("%s ran first %d times in 8 rounds, want 2", w.Name, first[w.Name])
		}
	}
}

func round(stepsPerS, rtt float64, lossBits string) *roundRecord {
	return &roundRecord{Sessions: 1, Steps: 10, PayloadElems: 100, LossBits: lossBits, FinalLoss: 0.5, FirstLoss: 2, BestLoss: 0.4,
		Metrics: map[string]float64{"steps_per_s": stepsPerS, "step_rtt_ms_p50": rtt,
			"wire_bytes_per_step": 1600, "client.step_cycle_ms_p50": 10}}
}

func TestAggregate(t *testing.T) {
	w := workload{Name: "train-x"}
	wr := &workloadResult{Name: w.Name,
		Rounds: []*roundRecord{round(10, 3, "a"), round(30, 1, "a"), round(20, 2, "a")},
		Traced: []*roundRecord{round(18, 2, "a")},
		Staged: &roundRecord{Metrics: map[string]float64{"core.stage_sum_ms": 9}},
	}
	wr.aggregate(w)
	if s := wr.EndToEnd["steps_per_s"]; s.Median != 20 || s.Unit != "1/s" || len(s.Values) != 3 {
		t.Errorf("steps_per_s = %+v", s)
	}
	if s := wr.EndToEnd["step_rtt_ms_p50"]; s.Median != 2 {
		t.Errorf("step_rtt_ms_p50 = %+v", s)
	}
	if got := wr.PerLayer["trace.overhead_frac"].Median; math.Abs(got-0.1) > 1e-12 {
		t.Errorf("trace.overhead_frac = %v, want (20-18)/20", got)
	}
	if got := wr.PerLayer["cluster.overhead_ms"].Median; got != 1 {
		t.Errorf("cluster.overhead_ms = %v, want 10-9", got)
	}
	if !wr.correct() {
		t.Errorf("checks failed: %+v", wr.Checks)
	}

	// The open loop's throughput is its schedule; tracing shows in latency.
	open := workload{Name: "open-x", Rate: 1}
	or := &workloadResult{Name: open.Name,
		Rounds: []*roundRecord{{Sessions: 1, Metrics: map[string]float64{"steps_per_s": 300, "session_ms_p50": 2}}},
		Traced: []*roundRecord{{Sessions: 1, Metrics: map[string]float64{"steps_per_s": 300, "session_ms_p50": 2.5, "loadgen.inflight_max": 2}}},
	}
	or.aggregate(open)
	if got := or.PerLayer["trace.overhead_frac"].Median; math.Abs(got-0.25) > 1e-12 {
		t.Errorf("open-loop trace.overhead_frac = %v, want (2.5-2)/2", got)
	}
	if _, ok := or.PerLayer["loadgen.inflight_max"]; !ok {
		t.Error("the open loop lost its load-generator metrics")
	}
	if _, ok := wr.PerLayer["loadgen.inflight_max"]; ok {
		t.Error("a closed loop reports load-generator metrics it does not have")
	}

	// A round that ends inside a loss spike has still trained; one whose
	// loss never fell below the first window's has not.
	for _, r := range wr.allRounds() {
		r.FinalLoss = 3
	}
	wr.aggregate(w)
	if !wr.correct() {
		t.Errorf("a late loss spike failed the checks: %+v", wr.Checks)
	}
	wr.Rounds[0].BestLoss = 2.5
	wr.aggregate(w)
	if wr.correct() {
		t.Error("a round that never trained passed the checks")
	}
	wr.Rounds[0].BestLoss = 0.4

	// A round whose loss differs in the last bit fails check.final_loss.
	wr.Rounds[1].LossBits = "b"
	wr.aggregate(w)
	if wr.correct() {
		t.Error("differing loss bits passed the checks")
	}
	wr.Rounds[1].LossBits = "a"
	// So does a round with wire bytes 2 % over the payload.
	wr.Rounds[2].Metrics["wire_bytes_per_step"] = 1632
	wr.aggregate(w)
	if wr.correct() {
		t.Error("wire bytes 2 % off passed the checks")
	}
	// One resend in ten steps accounts for one more frame each way.
	wr.Rounds[2].Metrics["wire_bytes_per_step"] = 1760
	wr.Rounds[2].Metrics[clientResends] = 1
	wr.aggregate(w)
	if !wr.correct() {
		t.Errorf("resend not accounted for: %+v", wr.Checks)
	}
}

func TestCountingConn(t *testing.T) {
	a, b := net.Pipe()
	var n atomic.Int64
	cc := countingConn{Conn: a, n: &n}
	go func() {
		buf := make([]byte, 5)
		if _, err := io.ReadFull(b, buf); err == nil {
			_, _ = b.Write([]byte("abc")) // the reader below reports a short read
		}
		b.Close()
	}()
	if _, err := cc.Write([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(cc)
	if err != nil || string(got) != "abc" {
		t.Fatalf("read %q, %v", got, err)
	}
	if n.Load() != 8 {
		t.Errorf("counted %d bytes, want 5 written + 3 read", n.Load())
	}
}

// instantConn answers every activation with its gradient before Send
// returns, as loopback TCP can.
type instantConn struct {
	grads chan *transport.Message
	taken chan struct{}
}

func (c *instantConn) Send(m *transport.Message) error {
	if m.Type == transport.MsgActivation {
		c.grads <- &transport.Message{Type: transport.MsgGradient, Seq: m.Seq}
		<-c.taken
	}
	return nil
}
func (c *instantConn) Recv() (*transport.Message, error) { return <-c.grads, nil }
func (c *instantConn) Close() error                      { return nil }

func TestSessionConnGradientBeatsSendReturn(t *testing.T) {
	inner := &instantConn{grads: make(chan *transport.Message), taken: make(chan struct{})}
	rec := &recorder{epoch: time.Now()}
	conn := newSessionConn(inner, 3, time.Now(), rec)
	var hooked []int
	conn.onGradient = func(k int, _ time.Time) { hooked = append(hooked, k) }
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 2; i++ {
			if _, err := conn.Recv(); err != nil {
				t.Error(err)
			}
			inner.taken <- struct{}{}
		}
	}()
	for seq := 0; seq < 2; seq++ {
		act := &transport.Message{Type: transport.MsgActivation, Seq: seq, Payload: tensor.New(2, 3)}
		if err := conn.Send(act); err != nil {
			t.Fatal(err)
		}
	}
	<-done
	if err := conn.Send(&transport.Message{Type: transport.MsgControl, Note: core.DoneNote}); err != nil {
		t.Fatal(err)
	}
	conn.finish(time.Now())
	if len(conn.rttMs) != 2 || len(conn.cycleMs) != 1 || conn.payloadElems != 6 {
		t.Errorf("rtt %v cycle %v elems %d; want 2 round trips, 1 cycle, 6 elements", conn.rttMs, conn.cycleMs, conn.payloadElems)
	}
	if !reflect.DeepEqual(hooked, []int{1, 2}) {
		t.Errorf("gradient hook saw %v", hooked)
	}
	names := map[string]int{}
	for _, s := range rec.spans {
		names[s.Name]++
		if s.Name != spanSession && s.Parent != 1 {
			t.Errorf("span %+v is not a child of the session span", s)
		}
	}
	if names[spanSession] != 1 || names[spanSend] != 2 || names[spanCompute] != 3 || names[spanLeave] != 1 {
		t.Errorf("spans by name = %v", names)
	}
}

func TestArrivals(t *testing.T) {
	w, err := workloadByName("churn-open", false)
	if err != nil {
		t.Fatal(err)
	}
	a, err := w.arrivals(7)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != 450 {
		t.Fatalf("%d arrivals, want rate x horizon = 450", len(a))
	}
	for i := range a {
		if a[i] <= 0 || a[i] >= w.Horizon || (i > 0 && a[i] <= a[i-1]) {
			t.Fatalf("arrival %d at %v is out of order or outside (0, %v)", i, a[i], w.Horizon)
		}
	}
	again, _ := w.arrivals(7)
	other, _ := w.arrivals(8)
	if !reflect.DeepEqual(a, again) || reflect.DeepEqual(a, other) {
		t.Error("arrivals must be a function of the seed")
	}
}

func TestVerdict(t *testing.T) {
	lower := metricSpec{Name: "step_rtt_ms_p50", Better: "lower", Bound: 0.1}
	higher := metricSpec{Name: "steps_per_s", Better: "higher", Bound: 0.1}
	failed := endToEnd[len(endToEnd)-1]
	for _, tc := range []struct {
		spec         metricSpec
		base, change float64
		want         string
	}{
		{lower, 10, 10.9, verdictSame},
		{lower, 10, 11.5, verdictWorse},
		{lower, 10, 8.5, verdictBetter},
		{higher, 40, 37, verdictSame},
		{higher, 40, 35, verdictWorse},
		{higher, 40, 45, verdictBetter},
		{failed, 0, 0, verdictSame},
		{failed, 0, 0.01, verdictWorse},
		{lower, 0, 0, verdictSame},
		{lower, 0, 3, verdictWorse},
		{higher, 0, 3, verdictBetter},
	} {
		if _, got := verdict(tc.spec, tc.base, tc.change); got != tc.want {
			t.Errorf("%s %v -> %v: %s, want %s", tc.spec.Name, tc.base, tc.change, got, tc.want)
		}
	}
	if failed.Name != failedFrac {
		t.Fatalf("last end-to-end metric is %s", failed.Name)
	}
}

func TestCompare(t *testing.T) {
	mk := func(vs ...float64) *resultFile {
		return &resultFile{Schema: resultSchema, Host: host{NProc: 2}, Workloads: []*workloadResult{{
			Name: "w", EndToEnd: map[string]stat{"steps_per_s": newStat("1/s", vs)},
		}}}
	}
	// find returns the one cell of workload × steps_per_s.
	find := func(base, change *resultFile, workload string) cell {
		t.Helper()
		cells, err := compareResults(base, change)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range cells {
			if c.Workload == workload && c.Metric == "steps_per_s" {
				return c
			}
		}
		t.Fatalf("no cell for %s steps_per_s in %+v", workload, cells)
		return cell{}
	}
	if c := find(mk(40, 41, 42), mk(30, 41.5, 50), "w"); c.Verdict != verdictSame || !c.Unresolved {
		t.Errorf("cell = %+v; want same but unresolved", c)
	}
	if c := find(mk(40, 41, 42), mk(30, 30.5, 31), "w"); c.Verdict != verdictWorse || c.Unresolved {
		t.Errorf("cell = %+v; want worse and resolved", c)
	}

	// A workload or a metric one side lacks is missing, and fails.
	base, change := mk(40, 41, 42), mk(40, 41, 42)
	change.Workloads[0].Name = "other"
	for _, name := range []string{"w", "other"} {
		if c := find(base, change, name); c.Verdict != verdictMissing {
			t.Errorf("%s: cell = %+v; want missing", name, c)
		}
	}
	cells, _ := compareResults(base, change)
	if failing := printCompare(io.Discard, base, change, cells); failing != len(cells) {
		t.Errorf("printCompare counted %d failing cells of %d missing ones", failing, len(cells))
	}

	// Results that cannot be compared are refused.
	smoke := mk(40, 41, 42)
	smoke.Smoke = true
	if _, err := compareResults(base, smoke); err == nil {
		t.Error("a smoke result was compared with a measured one")
	}
	big := mk(40, 41, 42)
	big.Host.NProc = 8
	if _, err := compareResults(base, big); err == nil {
		t.Error("results from 2 and 8 CPUs were compared")
	}
}

func TestResultRoundTrip(t *testing.T) {
	dir := t.TempDir()
	in := &resultFile{Schema: resultSchema, Host: host{NProc: 2, GoVersion: "go1", Kernel: "k", GitRev: "abc"}, Seed: 9,
		EndToEnd: endToEnd, PerLayer: perLayer,
		Workloads: []*workloadResult{{Name: "w", Why: "because", Rounds: []*roundRecord{round(1, 2, "a")},
			EndToEnd: map[string]stat{"steps_per_s": newStat("1/s", []float64{1, 2, 3})},
			Checks:   []check{{Name: "c", OK: true, Detail: "d"}}, FinalLossBits: "a"}}}
	path := filepath.Join(dir, "r.json")
	if err := in.write(path); err != nil {
		t.Fatal(err)
	}
	out, err := readResult(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Errorf("round trip changed the result:\n in %+v\nout %+v", in, out)
	}
	if err := os.WriteFile(path, []byte(`{"schema":"stsl-bench/1"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := readResult(path); err == nil {
		t.Error("a stsl-bench/1 file was accepted")
	}
}

// TestBenchmarkJSON pins BENCHMARK.json to the program: the driver reads
// names, units, directions and bounds from the file and values from the
// program, so they must agree.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Paths     []string `json:"paths"`
		Workloads []struct{ Name, Why string }
		EndToEnd  []metricSpec `json:"end_to_end"`
		PerLayer  []metricSpec `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(spec.Paths, []string{"bench"}) {
		t.Errorf("paths = %v", spec.Paths)
	}
	ws := workloads(false)
	if len(spec.Workloads) != len(ws) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(spec.Workloads), len(ws))
	}
	for i, w := range ws {
		if spec.Workloads[i].Name != w.Name || spec.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the program %s: %s", i, spec.Workloads[i], w.Name, w.Why)
		}
		if len(w.Why) > 200 {
			t.Errorf("%s: why is %d characters, the contract allows 200", w.Name, len(w.Why))
		}
	}
	// The file lists what exists on every workload and is never 0 by
	// construction: not failed_frac, not the load generator's metrics.
	if want := driverMetrics(false); !reflect.DeepEqual(spec.EndToEnd, want) || len(want) != len(endToEnd)-1 {
		t.Errorf("end_to_end = %+v\nwant %+v", spec.EndToEnd, want)
	}
	// The driver's bound is never tighter than the one compare applies,
	// and never wider than the contract allows.
	for i, spec := range driverMetrics(false) {
		if endToEnd[i].Name != spec.Name || spec.Bound < endToEnd[i].Bound || spec.Bound > 0.25 {
			t.Errorf("%s: driver bound %v against the issue's %v (%s)", spec.Name, spec.Bound, endToEnd[i].Bound, endToEnd[i].Name)
		}
	}
	if !reflect.DeepEqual(spec.PerLayer, driverMetrics(true)) {
		t.Errorf("per_layer = %+v\nwant %+v", spec.PerLayer, driverMetrics(true))
	}
	if len(allLayers) != 37 {
		t.Errorf("%d per-layer metrics, the issue names 37", len(allLayers))
	}
}

// TestSmoke runs the whole suite in-process at smoke size: every
// workload, live and staged, traced and not, the checks, the result file
// and both output shapes.
func TestSmoke(t *testing.T) {
	dir := t.TempDir()
	res, err := runSuite(inProcess, plan{workloads: workloads(true), rounds: 1, traced: true, smoke: true}, 3, dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Workloads) != 4 {
		t.Fatalf("%d workloads", len(res.Workloads))
	}
	for _, wr := range res.Workloads {
		if !wr.correct() {
			t.Errorf("%s: checks failed: %+v", wr.Name, wr.Checks)
		}
		for _, traced := range []bool{false, true} {
			line, err := driverResult(wr, traced)
			if err != nil {
				t.Errorf("%s traced=%v: %v", wr.Name, traced, err)
				continue
			}
			if want := len(driverMetrics(traced)); len(line.Metrics) != want {
				t.Errorf("%s traced=%v: %d metrics, want %d", wr.Name, traced, len(line.Metrics), want)
			}
			if line.Attempted < 1 || line.Failed != 0 || !line.Correct {
				t.Errorf("%s: driver line %+v", wr.Name, line)
			}
		}
		if st, err := os.Stat(traceFile(dir, wr.Name)); err != nil || st.Size() == 0 {
			t.Errorf("%s: trace file missing or empty (%v)", wr.Name, err)
		}
		if _, open := wr.PerLayer["loadgen.late_ms_p50"]; open != (wr.Name == "churn-open") {
			t.Errorf("%s: load-generator metrics reported: %v", wr.Name, open)
		}
		printWorkload(io.Discard, wr)
	}
	path := filepath.Join(dir, "result.json")
	if err := res.write(path); err != nil {
		t.Fatal(err)
	}
	back, err := readResult(path)
	if err != nil {
		t.Fatal(err)
	}
	if cells, err := compareResults(back, back); err != nil || len(cells) != 4*len(endToEnd) {
		t.Errorf("comparing the result with itself gave %d cells, want %d", len(cells), 4*len(endToEnd))
	} else {
		for _, c := range cells {
			if c.Verdict != verdictSame {
				t.Errorf("%s %s: a result differs from itself: %s", c.Workload, c.Metric, c.Verdict)
			}
		}
	}

	// The driver's shape: the same loop narrowed to one workload, with a
	// budget that is spent before the first round ends.
	w, err := workloadByName("train-cut4", true)
	if err != nil {
		t.Fatal(err)
	}
	one, err := runSuite(inProcess, plan{workloads: []workload{w}, rounds: 2, budget: time.Nanosecond, smoke: true}, 3, dir)
	if err != nil {
		t.Fatal(err)
	}
	if wr := one.Workloads[0]; len(wr.Rounds) != 2 || len(wr.Traced) != 0 || wr.Staged != nil || !wr.correct() {
		t.Errorf("driver run took %d untraced and %d traced rounds, want the floor of 2 and no trace", len(wr.Rounds), len(wr.Traced))
	}
}

func TestPlanBudget(t *testing.T) {
	p := plan{rounds: 3, budget: 30 * time.Second}
	for _, tc := range []struct {
		done    int
		elapsed time.Duration
		want    bool
	}{
		{0, 0, true},                 // the floor
		{2, 40 * time.Second, true},  // the floor, budget or not
		{3, 12 * time.Second, true},  // 4 s a pass: a fourth fits
		{7, 28 * time.Second, false}, // an eighth would end at 32 s
	} {
		if got := p.another(tc.done, tc.elapsed); got != tc.want {
			t.Errorf("another(%d, %v) = %v, want %v", tc.done, tc.elapsed, got, tc.want)
		}
	}
	// A traced plan keeps two more passes' time for the traced round and
	// the staged replay.
	p.traced = true
	if p.another(5, 20*time.Second) {
		t.Error("a traced plan took a sixth pass with 10 s left and 12 s of work to go")
	}
	if !p.another(4, 16*time.Second) {
		t.Error("a traced plan stopped with 14 s left and 12 s of work to go")
	}
	// Without a budget the count is exact.
	if (plan{rounds: 5}).another(5, time.Second) {
		t.Error("a plan without a budget took a sixth pass")
	}
}
