package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"os"
	"runtime"
	rtmetrics "runtime/metrics"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"github.com/stsl/stsl/internal/cluster"
	"github.com/stsl/stsl/internal/core"
	"github.com/stsl/stsl/internal/data"
	"github.com/stsl/stsl/internal/transport"
)

// roundRecord is what one round of one workload measured: every metric
// it could take, by name. The aggregator reads end-to-end metrics from
// untraced rounds and per-layer metrics from traced ones.
type roundRecord struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Traced   bool   `json:"traced"`
	// Invalid, when non-empty, says why the round must be run again
	// instead of being aggregated (the load generator ran late).
	Invalid string `json:"invalid,omitempty"`
	// Sessions attempted and failed (refused, errored, or short of the
	// step budget); Steps is the server's step count in the timed phase.
	Sessions int `json:"sessions"`
	Failed   int `json:"failed"`
	Steps    int `json:"steps"`
	// Samples says how many timed steps or sessions stand behind each
	// percentile.
	Samples map[string]int     `json:"samples"`
	Metrics map[string]float64 `json:"metrics"`
	// FinalLoss is the server's last window-averaged loss. LossBits is its
	// IEEE-754 pattern: with one end-system the schedule is deterministic,
	// so it must repeat exactly from round to round. On the closed loops
	// FirstLoss is the first full window's loss and BestLoss the lowest of
	// the later windows' (both 0 when the round is shorter than that).
	FinalLoss float64 `json:"final_loss"`
	FirstLoss float64 `json:"first_loss"`
	BestLoss  float64 `json:"best_loss"`
	LossBits  string  `json:"loss_bits"`
	// PayloadElems is the element count of one activation payload (the
	// gradient's is the same).
	PayloadElems int `json:"payload_elems"`
	// Problems lists correctness violations seen inside the round.
	Problems []string `json:"problems,omitempty"`
}

// snapshot is the process's resource state at a phase boundary.
type snapshot struct {
	at         time.Time
	cpu        time.Duration
	mallocs    uint64
	totalAlloc uint64
	numGC      uint32
	pauseNs    uint64
	wire       int64
}

func takeSnapshot(now time.Time, wire *atomic.Int64) snapshot {
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	var ru syscall.Rusage
	// Getrusage(RUSAGE_SELF) cannot fail with a valid pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return snapshot{
		at:         now,
		cpu:        time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		mallocs:    mem.Mallocs,
		totalAlloc: mem.TotalAlloc,
		numGC:      mem.NumGC,
		pauseNs:    mem.PauseTotalNs,
		wire:       wire.Load(),
	}
}

// phaseMetrics turns the two snapshots around the timed phase into the
// per-step costs.
func phaseMetrics(m map[string]float64, begin, end snapshot, wall time.Duration, steps int) {
	n := float64(steps)
	m["steps_per_s"] = n / wall.Seconds()
	m["cpu_ms_per_step"] = ms(end.cpu-begin.cpu) / n
	m["allocs_per_step"] = float64(end.mallocs-begin.mallocs) / n
	m["alloc_kb_per_step"] = float64(end.totalAlloc-begin.totalAlloc) / 1e3 / n
	m["wire_bytes_per_step"] = float64(end.wire-begin.wire) / n
	m["runtime.gc_cycles_per_kstep"] = float64(end.numGC-begin.numGC) / n * 1e3
	m["runtime.gc_pause_ms_per_kstep"] = float64(end.pauseNs-begin.pauseNs) / 1e6 / n * 1e3
	sample := []rtmetrics.Sample{{Name: "/gc/heap/live:bytes"}}
	rtmetrics.Read(sample)
	if sample[0].Value.Kind() == rtmetrics.KindUint64 {
		m["runtime.heap_live_mb"] = float64(sample[0].Value.Uint64()) / 1e6
	}
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", rest, err)
			}
			return kb * 1024 / 1e6, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}

// liveServer is the cluster server under test, listening on loopback
// TCP, telemetry off.
type liveServer struct {
	srv    *cluster.Server
	lis    *transport.Listener
	cancel context.CancelFunc
	served chan struct{}
}

func startServer(dep *core.Deployment, w workload) (*liveServer, error) {
	srv, err := cluster.NewServer(dep.Server, cluster.Config{
		BatchCoalesce: 1, Workers: 1, Checksum: w.Checksum,
	})
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	if err := srv.Start(ctx); err != nil {
		cancel()
		return nil, err
	}
	lis, err := transport.Listen("127.0.0.1:0")
	if err != nil {
		cancel()
		return nil, errors.Join(err, srv.Shutdown(context.Background()))
	}
	ls := &liveServer{srv: srv, lis: lis, cancel: cancel, served: make(chan struct{})}
	go func() {
		defer close(ls.served)
		srv.ServeListener(lis)
	}()
	return ls, nil
}

// stop shuts the server down and waits for its accept loop.
func (ls *liveServer) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := ls.srv.Shutdown(ctx)
	ls.cancel()
	ls.lis.Close()
	<-ls.served
	return err
}

// session is one end-system's visit: dial, join, train, leave.
type session struct {
	conn    *sessionConn
	steps   int
	resends int
	end     time.Time
	leaveMs float64
	err     error
}

// runSession drives es through steps batches against the server at
// addr. opened is when the session was due (open loop) or the moment
// before the dial (closed loop); the session's latency counts from it.
func runSession(ctx context.Context, addr string, es *core.EndSystem, steps int, w workload,
	opened time.Time, wire *atomic.Int64, rec *recorder, onGradient func(int, time.Time)) session {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return session{err: fmt.Errorf("dial: %w", err), end: time.Now()}
	}
	inner := transport.NewTCPConn(countingConn{Conn: nc, n: wire})
	if w.Checksum {
		transport.SetChecksum(inner, true)
	}
	conn := newSessionConn(inner, es.ID, opened, rec)
	conn.onGradient = onGradient
	res, err := cluster.RunClient(ctx, es, conn, cluster.ClientConfig{
		Steps: steps, GradTimeout: 30 * time.Second, BackoffSeed: uint64(es.ID) + 1,
	})
	conn.Close()
	s := session{conn: conn, err: err, end: time.Now()}
	if res != nil {
		s.steps, s.resends = res.Steps, res.Resends+res.Rejected
	}
	s.leaveMs = conn.finish(s.end)
	return s
}

func (s session) failed(budget int) bool { return s.err != nil || s.steps != budget }

// runRound runs one round of w in this process and returns its record
// and, when traced, the spans.
func runRound(w workload, seed uint64, traced bool) (*roundRecord, []span, error) {
	genStart := time.Now()
	shard, err := w.generate(seed)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: generate data: %w", w.Name, err)
	}
	rec := &roundRecord{
		Workload: w.Name, Seed: seed, Traced: traced,
		Samples: map[string]int{},
		Metrics: map[string]float64{"data.generate_s": time.Since(genStart).Seconds()},
	}
	var spans []span
	if w.open() {
		spans, err = runOpen(w, seed, traced, shard, rec)
	} else {
		spans, err = runClosed(w, seed, traced, shard, rec)
	}
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", w.Name, err)
	}
	rss, err := peakRSSMB()
	if err != nil {
		return nil, nil, err
	}
	rec.Metrics["peak_rss_mb"] = rss
	rec.Metrics["failed_frac"] = float64(rec.Failed) / float64(rec.Sessions)
	rec.LossBits = strconv.FormatUint(math.Float64bits(rec.FinalLoss), 16)
	return rec, spans, nil
}

// finishServer checks the server's own account of the round against the
// load's, then stops it: every session must have contributed exactly its
// budget and the server's steps must equal the clients' total.
func finishServer(ls *liveServer, rec *roundRecord, sessions, budget, clientSteps int) error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	err := ls.srv.AwaitClients(ctx, sessions)
	cancel()
	if err != nil {
		rec.Problems = append(rec.Problems, fmt.Sprintf("await clients: %v", err))
	}
	snap := ls.srv.Snapshot()
	rec.FinalLoss = ls.srv.FinalLoss()
	done := 0
	for _, c := range snap.Clients {
		if c.Done && c.Served == budget && c.Err == "" {
			done++
		}
	}
	rec.Metrics["cluster.sessions_served"] = float64(done)
	if done != sessions {
		rec.Problems = append(rec.Problems,
			fmt.Sprintf("server saw %d of %d sessions complete their %d steps", done, sessions, budget))
	}
	if snap.ServerSteps != clientSteps {
		rec.Problems = append(rec.Problems,
			fmt.Sprintf("server steps %d != sum of client steps %d", snap.ServerSteps, clientSteps))
	}
	return ls.stop()
}

// runClosed is the closed-loop round: one end-system, Warm untimed steps
// then Timed timed ones, in one session.
func runClosed(w workload, seed uint64, traced bool, shard *data.Dataset, rec *roundRecord) ([]span, error) {
	setupStart := time.Now()
	dep, err := w.deploy(seed, shard, 1)
	if err != nil {
		return nil, err
	}
	ls, err := startServer(dep, w)
	if err != nil {
		return nil, err
	}
	var tr *recorder
	if traced {
		tr = &recorder{epoch: setupStart}
	}
	var wire atomic.Int64
	var begin, end snapshot
	total := w.Warm + w.Timed
	// The hook runs in RunClient's receive goroutine between a
	// gradient's arrival and its hand-over to the compute loop: the
	// server worker is idle and the end-system is waiting, so the
	// snapshot is taken with nothing in flight.
	hook := func(k int, now time.Time) {
		if k%lossWindow == 0 {
			switch loss := ls.srv.FinalLoss(); {
			case k == lossWindow:
				rec.FirstLoss = loss
			case rec.BestLoss == 0 || loss < rec.BestLoss:
				rec.BestLoss = loss
			}
		}
		switch k {
		case w.Warm:
			begin = takeSnapshot(now, &wire)
		case total:
			end = takeSnapshot(now, &wire)
		}
	}
	opened := time.Now()
	s := runSession(context.Background(), ls.lis.Addr(), dep.Clients[0], total, w, opened, &wire, tr, hook)
	rec.Sessions = 1
	if s.failed(total) {
		rec.Failed = 1
		rec.Problems = append(rec.Problems, fmt.Sprintf("session: %d of %d steps, err=%v", s.steps, total, s.err))
	}
	if err := finishServer(ls, rec, 1, total, s.steps); err != nil {
		return nil, err
	}
	if rec.Failed > 0 || len(s.conn.rttMs) < total {
		// Nothing to time; the caller reports the problems.
		return nil, fmt.Errorf("closed-loop session failed: %v", rec.Problems)
	}

	m := rec.Metrics
	rec.Steps, rec.PayloadElems = w.Timed, s.conn.payloadElems
	m["setup_s"] = begin.at.Sub(setupStart).Seconds()
	phaseMetrics(m, begin, end, end.at.Sub(begin.at), w.Timed)
	rtt := s.conn.rttMs[w.Warm:total]
	cycle := s.conn.cycleMs[w.Warm:]
	sessionMs := ms(s.end.Sub(opened))
	m["step_rtt_ms_p50"] = median(rtt)
	m["client.step_rtt_ms_p95"] = percentile(rtt, 95)
	m["client.step_cycle_ms_p50"] = median(cycle)
	m["session_ms_p50"] = sessionMs
	m["client.session_ms_p95"] = sessionMs
	m["cluster.join_ms_p50"] = s.conn.joinMs
	m["cluster.leave_ms_p50"] = s.leaveMs
	m[clientResends] = float64(s.resends)
	rec.Samples["step_rtt_ms_p50"] = len(rtt)
	rec.Samples["session_ms_p50"] = 1
	if !traced {
		return nil, nil
	}
	timed := spansWithin(tr.spans, begin.at.Sub(setupStart), end.at.Sub(setupStart))
	m["transport.send_ms_p50"] = median(durationsMs(timed, spanSend))
	m["client.compute_ms_p50"] = median(durationsMs(timed, spanCompute))
	return tr.spans, nil
}

// clientResends counts activations RunClient sent again (its adaptive
// wait window fired, or the server bounced the batch). It is a
// diagnostic: every resend puts another activation frame on the wire, so
// it explains a wire_bytes_per_step above the payload.
const clientResends = "client.resends"

// lossWindow is the length of the server's loss-averaging window; the
// loss after this many steps is the first full window, and the loss after
// every further multiple is a window of its own.
const lossWindow = 10

// spansWithin keeps the spans that lie inside [from, to] on the round's
// clock.
func spansWithin(spans []span, from, to time.Duration) []span {
	var out []span
	for _, s := range spans {
		if s.Start >= from.Nanoseconds() && s.End <= to.Nanoseconds() {
			out = append(out, s)
		}
	}
	return out
}
