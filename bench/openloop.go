package main

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/stsl/stsl/internal/data"
	"github.com/stsl/stsl/internal/loadgen"
)

// arrivals draws the seed's Poisson trace from loadgen and stretches it
// so that arrival number sessions()+1 falls on the horizon. The gaps
// keep their Poisson spacing, but every seed offers the same number of
// sessions over the same time: the Poisson count alone would move
// steps_per_s by 1/sqrt(n) (4.7 % at 450 sessions) from seed to seed,
// which is the seed's noise and not the system's.
func (w workload) arrivals(seed uint64) ([]time.Duration, error) {
	n := w.sessions()
	raw, err := loadgen.Arrivals(loadgen.Config{
		Shape: loadgen.ShapePoisson, Rate: w.Rate, Duration: 2 * w.Horizon, Seed: seed,
	})
	if err != nil {
		return nil, err
	}
	if len(raw) <= n {
		return nil, fmt.Errorf("seed %d drew %d arrivals in twice the horizon, need more than %d", seed, len(raw), n)
	}
	scale := float64(w.Horizon) / float64(raw[n])
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = time.Duration(float64(raw[i]) * scale)
	}
	return out, nil
}

// runOpen is the open-loop round: WarmSessions sequential sessions, then
// the arrival schedule. Latency counts from each session's due time, so
// a stall is charged to every session it delays; how late the generator
// itself woke (timer lateness) and how long an arrival waited for one of
// the MaxInFlight connections (slot wait) are reported apart. Every
// end-system is built by deploy before the schedule starts, so
// construction is not in any session's latency.
func runOpen(w workload, seed uint64, traced bool, shard *data.Dataset, rec *roundRecord) ([]span, error) {
	due, err := w.arrivals(seed)
	if err != nil {
		return nil, err
	}
	setupStart := time.Now()
	n := len(due)
	dep, err := w.deploy(seed, shard, w.WarmSessions+n)
	if err != nil {
		return nil, err
	}
	ls, err := startServer(dep, w)
	if err != nil {
		return nil, err
	}
	addr := ls.lis.Addr()
	ctx := context.Background()
	var wire atomic.Int64
	clientSteps := 0
	for i := 0; i < w.WarmSessions; i++ {
		s := runSession(ctx, addr, dep.Clients[i], w.SessionSteps, w, time.Now(), &wire, nil, nil)
		clientSteps += s.steps
		if s.failed(w.SessionSteps) {
			rec.Problems = append(rec.Problems, fmt.Sprintf("warm-up session %d: %d steps, err=%v", i, s.steps, s.err))
		}
	}

	type outcome struct {
		session
		due            time.Time
		late, slotWait time.Duration
		rec            *recorder
	}
	out := make([]outcome, n)
	slots := make(chan struct{}, w.MaxInFlight) // counting semaphore
	var inflight atomic.Int64
	var inflightMax int64
	var wg sync.WaitGroup
	var wake alarm
	begin := takeSnapshot(time.Now(), &wire)
	for i, off := range due {
		o := &out[i]
		o.due = begin.at.Add(off)
		if time.Until(o.due) > 0 {
			wake.until(o.due)
			o.late = time.Since(o.due)
		}
		slots <- struct{}{}
		// Whatever lies between the due time and the slot, other than
		// the timer's own lateness, was spent waiting for a connection.
		o.slotWait = max(0, time.Since(o.due)-o.late)
		inflightMax = max(inflightMax, inflight.Add(1))
		if traced {
			o.rec = &recorder{epoch: setupStart}
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			o.session = runSession(ctx, addr, dep.Clients[w.WarmSessions+i], w.SessionSteps, w, o.due, &wire, o.rec, nil)
			inflight.Add(-1)
			<-slots
		}()
	}
	wg.Wait()
	end := takeSnapshot(time.Now(), &wire)

	resends := 0
	var sessionMs, rtt, cycle, join, leave, late, slotWait []float64
	tr := &recorder{epoch: setupStart}
	for i := range out {
		o := &out[i]
		clientSteps += o.steps
		resends += o.resends
		if o.failed(w.SessionSteps) {
			rec.Failed++
			rec.Problems = append(rec.Problems, fmt.Sprintf("session %d: %d steps, err=%v", i, o.steps, o.err))
			continue
		}
		sessionMs = append(sessionMs, ms(o.end.Sub(o.due)))
		rec.PayloadElems = o.conn.payloadElems
		rtt = append(rtt, o.conn.rttMs...)
		cycle = append(cycle, o.conn.cycleMs...)
		join = append(join, o.conn.joinMs)
		leave = append(leave, o.leaveMs)
		late = append(late, ms(o.late))
		slotWait = append(slotWait, ms(o.slotWait))
		if o.rec != nil {
			tr.merge(o.rec)
		}
	}
	rec.Sessions = n
	if err := finishServer(ls, rec, w.WarmSessions+n, w.SessionSteps, clientSteps); err != nil {
		return nil, err
	}
	if len(sessionMs) == 0 {
		return nil, fmt.Errorf("every open-loop session failed: %v", rec.Problems)
	}

	m := rec.Metrics
	rec.Steps = w.SessionSteps * (n - rec.Failed)
	m["setup_s"] = begin.at.Sub(setupStart).Seconds()
	// The phase lasts the schedule's horizon, or until the backlog has
	// drained if that is later: goodput equals the offered rate unless
	// sessions fail or back up.
	wall := max(end.at.Sub(begin.at), w.Horizon)
	phaseMetrics(m, begin, end, wall, rec.Steps)
	m["step_rtt_ms_p50"] = median(rtt)
	m["client.step_rtt_ms_p95"] = percentile(rtt, 95)
	m["client.step_cycle_ms_p50"] = median(cycle)
	m["session_ms_p50"] = median(sessionMs)
	m["client.session_ms_p95"] = percentile(sessionMs, 95)
	m["cluster.join_ms_p50"] = median(join)
	m["cluster.leave_ms_p50"] = median(leave)
	m[clientResends] = float64(resends)
	m["loadgen.late_ms_p50"] = median(late)
	m["loadgen.late_ms_p99"] = percentile(late, 99)
	m["loadgen.slot_wait_ms_p95"] = percentile(slotWait, 95)
	m["loadgen.inflight_max"] = float64(inflightMax)
	rec.Samples["step_rtt_ms_p50"] = len(rtt)
	rec.Samples["session_ms_p50"] = len(sessionMs)
	// A smoke run's handful of cold sessions says nothing about the
	// generator.
	if !w.Smoke && m["loadgen.late_ms_p50"] > 0.1*m["session_ms_p50"] {
		rec.Invalid = fmt.Sprintf("load generator ran late: p50 %.3f ms against a session p50 of %.3f ms",
			m["loadgen.late_ms_p50"], m["session_ms_p50"])
	}
	if !traced {
		return nil, nil
	}
	m["transport.send_ms_p50"] = median(durationsMs(tr.spans, spanSend))
	m["client.compute_ms_p50"] = median(durationsMs(tr.spans, spanCompute))
	return tr.spans, nil
}

// alarm wakes the generator at due times. A sleeping thread's wake-up
// alone costs 0.35–0.42 ms on the sizing host, more than a tenth of a
// 3 ms session, so the alarm sleeps short of the due time by the
// overshoot its earlier sleeps showed (smoothed) and yields through the
// rest — tens of microseconds, where yielding from half a millisecond
// out took a CPU from the server and tripled session latency.
type alarm struct{ overshoot time.Duration }

// until returns as close after t as it can.
func (a *alarm) until(t time.Time) {
	if d := time.Until(t) - a.overshoot; d > 0 {
		start := time.Now()
		time.Sleep(d)
		over := time.Since(start) - d
		a.overshoot += (over - a.overshoot) / 8
	}
	for time.Until(t) > 0 {
		runtime.Gosched()
	}
}
