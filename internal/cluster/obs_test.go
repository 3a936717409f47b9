package cluster

import (
	"context"
	"strings"
	"testing"
	"time"

	"github.com/stsl/stsl/internal/obs"
)

// TestWindowRateMath exercises the windowed-throughput sample path
// directly: cadence-gated appends, pruning to one pre-window baseline,
// and the near-zero elapsed guard.
func TestWindowRateMath(t *testing.T) {
	s := &Server{}
	t0 := time.Unix(1000, 0)

	// Near-zero guard: one sample, asked immediately.
	s.steps = 5
	s.observeStepLocked(t0)
	if got := s.windowRateLocked(t0); got != 0 {
		t.Fatalf("rate with no elapsed time = %v, want 0", got)
	}
	if got := s.windowRateLocked(t0.Add(10 * time.Millisecond)); got != 0 {
		t.Fatalf("rate under the 50ms floor = %v, want 0", got)
	}

	// Steady stream: 10 steps/s for 5 seconds, sampled every 500ms.
	s = &Server{}
	for i := 0; i <= 10; i++ {
		s.steps = i * 5
		s.observeStepLocked(t0.Add(time.Duration(i) * 500 * time.Millisecond))
	}
	at := t0.Add(5 * time.Second)
	if got := s.windowRateLocked(at); got < 9.5 || got > 10.5 {
		t.Fatalf("steady rate = %v, want ≈10", got)
	}

	// A stall: no steps for the next 12s. The window must forget the
	// earlier burst and report ≈0, while the lifetime average would not.
	s.observeStepLocked(at.Add(12 * time.Second))
	if got := s.windowRateLocked(at.Add(12 * time.Second)); got > 0.5 {
		t.Fatalf("rate after stall = %v, want ≈0", got)
	}

	// Pruning: a long run keeps the sample slice bounded to roughly
	// window/cadence plus the baseline.
	s = &Server{}
	for i := 0; i < 1000; i++ {
		s.steps = i
		s.observeStepLocked(t0.Add(time.Duration(i) * 300 * time.Millisecond))
	}
	if n := len(s.rateSamples); n > int(rateWindow/(rateWindow/40))+2 {
		t.Fatalf("rateSamples grew to %d, pruning is broken", n)
	}

	// Cadence: samples closer than 250ms are coalesced.
	s = &Server{}
	for i := 0; i < 100; i++ {
		s.steps = i
		s.observeStepLocked(t0.Add(time.Duration(i) * time.Millisecond))
	}
	if n := len(s.rateSamples); n != 1 {
		t.Fatalf("cadence gate kept %d samples in 100ms, want 1", n)
	}
}

// TestSnapshotUptimeGuard takes a snapshot immediately after Start; the
// lifetime rate must be zero (not steps divided by nanoseconds) and the
// windowed rate must be zero with no history.
func TestSnapshotUptimeGuard(t *testing.T) {
	dep := buildDeployment(t, 1, "fifo")
	srv := startServer(t, dep, Config{})
	snap := srv.Snapshot()
	if snap.ServerSteps != 0 && snap.StepsPerSec > 1e6 {
		t.Fatalf("unguarded lifetime rate: %v", snap.StepsPerSec)
	}
	if snap.StepsPerSecWindow != 0 {
		t.Fatalf("windowed rate with no steps = %v, want 0", snap.StepsPerSecWindow)
	}
	if !strings.Contains(snap.String(), "/s now") {
		t.Fatalf("Snapshot.String missing windowed rate: %q", snap.String())
	}
}

// TestClusterTelemetry runs a small live deployment with a registry and
// tracer attached and checks the whole instrumentation surface: queue
// counters balance, lifecycle counters match the client population,
// worker spans and grad round-trips were recorded, and the scrape
// renders.
func TestClusterTelemetry(t *testing.T) {
	reg := obs.NewRegistry()
	tr := obs.NewTracer(obs.DefaultTraceCap)
	const clients, steps = 3, 4
	dep := buildDeployment(t, clients, "fifo")
	res, err := Run(context.Background(), dep, RunnerConfig{
		StepsPerClient: steps,
		Transport:      TransportTCP,
		Cluster:        Config{Obs: reg, Tracer: tr},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.ServerSteps != clients*steps {
		t.Fatalf("server steps = %d, want %d", res.ServerSteps, clients*steps)
	}

	counter := func(name string, labels obs.Labels) int64 {
		return reg.Counter(name, labels).Value()
	}
	if got := counter("stsl_queue_enqueued_total", obs.Labels{"policy": "fifo"}); got != clients*steps {
		t.Errorf("enqueued = %d, want %d", got, clients*steps)
	}
	if got := counter("stsl_queue_dequeued_total", obs.Labels{"policy": "fifo"}); got != clients*steps {
		t.Errorf("dequeued = %d, want %d", got, clients*steps)
	}
	if got := counter("stsl_cluster_sessions_total", obs.Labels{"event": "join"}); got != clients {
		t.Errorf("joins = %d, want %d", got, clients)
	}
	if got := counter("stsl_cluster_sessions_total", obs.Labels{"event": "leave"}); got != clients {
		t.Errorf("leaves = %d, want %d", got, clients)
	}
	if got := counter("stsl_cluster_sessions_total", obs.Labels{"event": "evict"}); got != 0 {
		t.Errorf("evictions = %d, want 0", got)
	}
	if got := counter("stsl_server_steps_total", nil); got == 0 {
		t.Error("core server step counter never incremented")
	}

	wait := reg.Histogram("stsl_queue_wait_seconds", obs.Labels{"policy": "fifo"})
	if wait.Count() != uint64(clients*steps) {
		t.Errorf("wait histogram count = %d, want %d", wait.Count(), clients*steps)
	}
	if h := reg.Histogram("stsl_worker_process_seconds", nil); h.Count() == 0 {
		t.Error("worker process histogram empty")
	}
	if h := reg.Histogram("stsl_worker_pop_seconds", nil); h.Count() == 0 {
		t.Error("worker pop histogram empty")
	}
	var rtt uint64
	for i := 0; i < clients; i++ {
		rtt += reg.Histogram("stsl_client_grad_rtt_seconds",
			obs.Labels{"client": []string{"0", "1", "2"}[i]}).Count()
	}
	if rtt != uint64(clients*steps) {
		t.Errorf("grad RTT observations = %d, want %d", rtt, clients*steps)
	}
	// TCP transport: frames flowed in both directions and bytes were
	// counted at the socket boundary.
	if got := counter("stsl_transport_frames_total", obs.Labels{"dir": "in"}); got == 0 {
		t.Error("no inbound frames counted")
	}
	if got := counter("stsl_transport_bytes_total", obs.Labels{"dir": "in"}); got == 0 {
		t.Error("no inbound bytes counted")
	}

	// Trace ring saw lifecycle events and worker spans.
	kinds := map[string]int{}
	for _, ev := range tr.Events() {
		kinds[ev.Kind]++
	}
	if kinds["session.join"] != clients {
		t.Errorf("trace joins = %d, want %d", kinds["session.join"], clients)
	}
	if kinds["worker.process"] == 0 || kinds["worker.pop"] == 0 || kinds["worker.scatter"] == 0 {
		t.Errorf("missing worker spans in trace: %v", kinds)
	}

	// The scrape must render every family without panicking.
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"stsl_queue_wait_seconds_bucket", "stsl_cluster_sessions_total",
		"stsl_worker_process_seconds_sum", "stsl_client_grad_rtt_seconds_count",
		"stsl_uptime_seconds",
	} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("scrape missing %s", want)
		}
	}
}

// TestTelemetryDisabledIsInert re-checks the zero-config path: no
// registry, no tracer, and the run must behave exactly as before.
func TestTelemetryDisabledIsInert(t *testing.T) {
	dep := buildDeployment(t, 2, "fifo")
	res, err := Run(context.Background(), dep, RunnerConfig{
		StepsPerClient: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.ServerSteps != 6 {
		t.Fatalf("server steps = %d, want 6", res.ServerSteps)
	}
}
