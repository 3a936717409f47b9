package cluster

import (
	"fmt"
	"strconv"
	"time"

	"github.com/stsl/stsl/internal/obs"
)

// instruments is the cluster server's telemetry bundle: session
// lifecycle counters and the worker's per-stage timing histograms. The
// lifecycle counters are written by Server.transition under s.mu, from
// whichever goroutine applies the edge; the stage histograms are written
// only by the worker — see DESIGN.md §3.2 and §3.4 for the ownership
// rules.
type instruments struct {
	joins     *obs.Counter
	resumes   *obs.Counter
	parks     *obs.Counter
	leaves    *obs.Counter
	evictions *obs.Counter
	refusals  *obs.Counter

	// corruptFrames counts inbound frames rejected by their CRC32C
	// trailer (stsl_corrupt_frames_total); quarantines counts clients
	// blocklisted by the activation sanitizer (stsl_quarantined_total).
	corruptFrames *obs.Counter
	quarantines   *obs.Counter

	// reg backs the lazily created per-client suspicion gauges.
	reg *obs.Registry

	// pop is time the worker spent obtaining its next batch — blocked
	// waits included, so it reads as "idle share" next to process
	// (stsl_worker_pop_seconds).
	pop *obs.Histogram
	// process times the coalesced forward/backward/step pass
	// (stsl_worker_process_seconds).
	process *obs.Histogram
	// scatter times fanning gradient replies back to sessions
	// (stsl_worker_scatter_seconds).
	scatter *obs.Histogram
}

func newInstruments(reg *obs.Registry) *instruments {
	event := func(kind string) *obs.Counter {
		return reg.Counter("stsl_cluster_sessions_total", obs.Labels{"event": kind})
	}
	return &instruments{
		joins:     event("join"),
		resumes:   event("resume"),
		parks:     event("park"),
		leaves:    event("leave"),
		evictions: event("evict"),
		refusals:  event("refuse"),

		corruptFrames: reg.Counter("stsl_corrupt_frames_total", nil),
		quarantines:   reg.Counter("stsl_quarantined_total", nil),
		reg:           reg,

		pop:     reg.Histogram("stsl_worker_pop_seconds", nil),
		process: reg.Histogram("stsl_worker_process_seconds", nil),
		scatter: reg.Histogram("stsl_worker_scatter_seconds", nil),
	}
}

// suspicionGauge is the per-client suspicion score series
// (stsl_client_suspicion{client="N"}), created on first use — only
// clients the sanitizer has actually scored appear in /metrics.
func (ins *instruments) suspicionGauge(client int) *obs.Gauge {
	return ins.reg.Gauge("stsl_client_suspicion", obs.Labels{"client": strconv.Itoa(client)})
}

// lifecycle records one session transition: a counter bump and a trace
// event. Safe with nil instruments and/or a nil tracer (no-ops), so
// call sites record transitions unconditionally.
func (s *Server) lifecycle(kind string, client int, note string) {
	if ins := s.ins; ins != nil {
		switch kind {
		case "session.join":
			ins.joins.Inc()
		case "session.resume":
			ins.resumes.Inc()
		case "session.park":
			ins.parks.Inc()
		case "session.leave":
			ins.leaves.Inc()
		case "session.evict":
			ins.evictions.Inc()
		case "session.refuse":
			ins.refusals.Inc()
		case "session.quarantine":
			ins.quarantines.Inc()
		}
	}
	s.tr.Event(kind, client, -1, note)
}

// rateWindow is the horizon of Snapshot's windowed throughput: wide
// enough to smooth coalescing bursts, narrow enough that a dashboard
// sees a stall within seconds.
const rateWindow = 10 * time.Second

// rateSample is one (wall time, cumulative steps) observation for the
// windowed rate.
type rateSample struct {
	at    time.Time
	steps int
}

// observeStepLocked appends a rate sample at most every rateWindow/40
// (250ms at the 10s window) and prunes samples that fell out of the
// window, keeping one pre-window baseline so the rate always spans the
// full horizon once enough history exists. Caller must hold s.mu.
func (s *Server) observeStepLocked(now time.Time) {
	const cadence = rateWindow / 40
	n := len(s.rateSamples)
	if n > 0 && now.Sub(s.rateSamples[n-1].at) < cadence {
		return
	}
	s.rateSamples = append(s.rateSamples, rateSample{at: now, steps: s.steps})
	// Prune to: at most one sample older than the window (the
	// baseline), plus everything inside it.
	cut := 0
	for cut < len(s.rateSamples)-1 && now.Sub(s.rateSamples[cut+1].at) > rateWindow {
		cut++
	}
	if cut > 0 {
		s.rateSamples = append(s.rateSamples[:0], s.rateSamples[cut:]...)
	}
}

// windowRateLocked computes steps/s over (at most) the trailing
// rateWindow. Caller must hold s.mu.
func (s *Server) windowRateLocked(now time.Time) float64 {
	if len(s.rateSamples) == 0 {
		return 0
	}
	base := s.rateSamples[0]
	for _, smp := range s.rateSamples {
		if now.Sub(smp.at) <= rateWindow {
			base = smp
			break
		}
		base = smp
	}
	elapsed := now.Sub(base.at)
	if elapsed < 50*time.Millisecond {
		// Too little history for a meaningful rate — and guarding the
		// division is the point: a near-zero denominator would report
		// absurd throughput right after warmup.
		return 0
	}
	return float64(s.steps-base.steps) / elapsed.Seconds()
}

// workerSpan records one completed worker stage into both the stage
// histogram (nil-safe) and the trace ring. n annotates the batch size.
// Only called when telemetry is enabled, so the disabled hot path pays
// a single bool check and no clock reads.
func (s *Server) workerSpan(kind string, h *obs.Histogram, start time.Time, n int) {
	d := time.Since(start)
	h.ObserveDuration(d)
	s.tr.Record(kind, -1, -1, fmt.Sprintf("n=%d", n), d)
}
