package cluster

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"sync"
	"time"

	"github.com/stsl/stsl/internal/core"
	"github.com/stsl/stsl/internal/mathx"
	"github.com/stsl/stsl/internal/metrics"
	"github.com/stsl/stsl/internal/nn"
	"github.com/stsl/stsl/internal/obs"
	"github.com/stsl/stsl/internal/queue"
	"github.com/stsl/stsl/internal/transport"
)

// protocolViolation marks receive-loop errors that are the peer's fault.
// A session that violates the protocol is evicted, never parked: resume
// exists for flaky links, not misbehaving clients.
type protocolViolation struct{ error }

func (e protocolViolation) Unwrap() error { return e.error }

func violation(format string, args ...interface{}) error {
	return protocolViolation{fmt.Errorf(format, args...)}
}

// Server is the live centralized side of the framework: it accepts
// end-system sessions over any transport.Conn, feeds one mutex-guarded
// scheduling queue, and drains it with one worker goroutine that owns
// all model state. The session layer — receive goroutines, the janitor,
// the reply cache — touches only the queue and per-session bookkeeping
// and owns no model state, so the paper's scheduling discipline — not
// goroutine scheduling luck — decides the service order of concurrently
// arriving activations.
type Server struct {
	cfg  Config
	core *core.Server
	q    *queue.Safe
	now  func() time.Duration

	// Telemetry (all optional): ins holds the cluster-level counters
	// and worker histograms, tr the event ring. Both nil when
	// Config.Obs/Tracer are unset.
	ins *instruments
	tr  *obs.Tracer

	// svcLat is the service-latency histogram (enqueue → gradient ready)
	// behind the RetryAfter hint and Health's p95. Always non-nil:
	// registry-backed under Obs, standalone otherwise.
	svcLat *obs.Histogram
	// san screens activation payloads for NaN/Inf and norm outliers
	// before they can reach the queue; nil when Config.Sanitize is off.
	san *sanitizer

	ctx    context.Context
	cancel context.CancelFunc
	// wg tracks the worker and the janitor. The worker writes the final
	// checkpoint before it is done, so Shutdown (which waits on wg)
	// returns only after it.
	wg sync.WaitGroup

	startWall time.Time

	// ckptDue counts steps since the last checkpoint; worker-owned.
	ckptDue int

	mu       sync.Mutex
	cond     *sync.Cond
	sessions map[int]*session
	tokens   *mathx.RNG
	joined   int
	// live counts sessions holding an admission slot (joined or parked)
	// — the MaxSessions denominator. Written only by transition.
	live int
	// refused counts joins bounced by admission control; shed counts
	// queued activations expired past WorkDeadline.
	refused     int
	shed        int
	steps       int
	checkpoints int
	ckptErr     error
	lastLoss    float64
	// losses is the training-loss curve, fed one raw batch loss per
	// delivery under s.mu, so FinalLoss and Snapshot can read it from any
	// goroutine while the worker owns the core server's own curve.
	losses *metrics.LossCurve
	// corruptFrames counts inbound frames whose CRC32C trailer did not
	// match — detected, dropped, and recovered by the client's resend.
	corruptFrames int
	// quarantined blocklists client ids the sanitizer ruled hostile:
	// their sessions were aborted and any rejoin or resume is refused
	// for the server's lifetime (an evicted-but-retrying poisoner would
	// otherwise rejoin and continue).
	quarantined map[int]string
	started     bool
	// rateSamples backs Snapshot's windowed throughput (see
	// observeStepLocked).
	rateSamples []rateSample
}

// NewServer wraps a wired core.Server for live concurrent use. The core
// server's queue is replaced with a thread-safe wrapper; the core server
// must not be driven by anyone else afterwards.
func NewServer(srv *core.Server, cfg Config) (*Server, error) {
	if srv == nil {
		return nil, fmt.Errorf("cluster: nil core server")
	}
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	safe, ok := srv.Queue.(*queue.Safe)
	if !ok {
		safe = queue.NewSafe(srv.Queue)
		srv.Queue = safe
	}
	cfg = cfg.withDefaults()
	if safe.Gated() && cfg.QueueCap > 0 {
		// A gated policy (sync-rounds) refuses to pop until every active
		// client has an item queued, so a cap below the client count can
		// never fill the gate and parks the excess sessions forever. The
		// lock-step protocol already bounds depth to the client count, so
		// lift the cap rather than wedge.
		cfg.QueueCap = 0
	}
	// Same averaging window as the core server's private curve.
	losses, err := metrics.NewLossCurve(10)
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:         cfg,
		core:        srv,
		q:           safe,
		tr:          cfg.Tracer,
		svcLat:      new(obs.Histogram),
		sessions:    make(map[int]*session),
		quarantined: make(map[int]string),
		losses:      losses,
	}
	if cfg.Sanitize {
		s.san = newSanitizer(normWindow, normFactor, suspicionLimit)
	}
	if cfg.Obs != nil {
		s.ins = newInstruments(cfg.Obs)
		safe.SetInstruments(queue.NewInstruments(cfg.Obs, safe.Name()))
		if srv.Instr == nil {
			srv.Instr = core.NewServerInstruments(cfg.Obs)
		}
		s.svcLat = cfg.Obs.Histogram("stsl_service_seconds", nil)
	}
	s.cond = sync.NewCond(&s.mu)
	return s, nil
}

// Start launches the worker loop (and the janitor, when straggler
// detection or resume grace is configured). It must be called exactly
// once, before any Attach. The server stops when ctx is cancelled or
// Shutdown is called.
func (s *Server) Start(ctx context.Context) error {
	s.mu.Lock()
	if s.started {
		s.mu.Unlock()
		return fmt.Errorf("cluster: server already started")
	}
	s.started = true
	// Session tokens need to be unguessable across server restarts, not
	// cryptographically strong; wall-clock seeding is enough.
	s.tokens = mathx.NewRNG(uint64(time.Now().UnixNano()) | 1)
	// ctx is assigned under the same lock that publishes started, so
	// Health() can read both consistently from any goroutine.
	s.ctx, s.cancel = context.WithCancel(ctx)
	s.mu.Unlock()

	s.startWall = time.Now()
	s.now = s.cfg.Now
	if s.now == nil {
		start := s.startWall
		s.now = func() time.Duration { return time.Since(start) }
	}
	if s.cfg.Obs != nil {
		start := s.startWall
		s.cfg.Obs.GaugeFunc("stsl_uptime_seconds", nil, func() float64 {
			return time.Since(start).Seconds()
		})
	}
	// Wake AwaitClients waiters when the server stops for any reason.
	context.AfterFunc(s.ctx, func() {
		s.mu.Lock()
		s.cond.Broadcast()
		s.mu.Unlock()
	})
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		s.worker()
		if s.cfg.Checkpoint != nil {
			// The final checkpoint at exit makes a graceful restart nearly
			// lossless: every processed step is persisted, and clients
			// resend only their unacknowledged in-flight batch.
			s.checkpoint()
		}
	}()
	if s.cfg.StragglerTimeout > 0 || s.cfg.ResumeGrace > 0 {
		s.wg.Add(1)
		go s.janitor()
	}
	return nil
}

// worker is the goroutine that owns the model: it drains the queue per
// the scheduling policy — up to BatchCoalesce items per PopBatch — runs
// one stacked forward/backward/step over the coalesced batch, and
// scatters each client's gradient slice back to its session. A batch
// that fails falls back to serving its items one at a time, so only the
// offending client is evicted, never its batchmates.
func (s *Server) worker() {
	// telemetry gates every clock read on the hot path: with Obs and
	// Tracer unset the loop runs exactly as before, one bool check per
	// stage.
	telemetry := s.ins != nil || s.tr != nil
	var insPop, insProc, insScat *obs.Histogram
	if s.ins != nil {
		insPop, insProc, insScat = s.ins.pop, s.ins.process, s.ins.scatter
	}
	for {
		var popStart time.Time
		if telemetry {
			popStart = time.Now()
		}
		var items []queue.Item
		for {
			if s.cfg.WorkDeadline > 0 {
				var dead []queue.Item
				items, dead = s.q.PopBatchDeadline(s.now(), s.cfg.BatchCoalesce)
				for _, it := range dead {
					s.shedExpired(it)
				}
			} else {
				items = s.q.PopBatch(s.now(), s.cfg.BatchCoalesce)
			}
			if len(items) > 0 {
				break
			}
			select {
			case <-s.q.Pushed():
			case <-s.ctx.Done():
				return
			}
		}
		if telemetry {
			// Blocked waits included: next to worker.process this reads
			// as the worker's idle share — high pop times mean the
			// queue, not the model, is the bottleneck.
			s.workerSpan("worker.pop", insPop, popStart, len(items))
		}
		if s.ctx.Err() != nil {
			// Shutdown raced the pop: return the admitted work so the
			// final snapshot and checkpoint account for it instead of
			// silently dropping contributions the clients believe are
			// in flight.
			s.q.Requeue(items...)
			return
		}
		if len(items) > 1 {
			now := s.now()
			var procStart time.Time
			if telemetry {
				procStart = time.Now()
			}
			replies, err := s.processBatch(items, now)
			if err == nil {
				if telemetry {
					s.workerSpan("worker.process", insProc, procStart, len(items))
				}
				var scatStart time.Time
				if telemetry {
					scatStart = time.Now()
				}
				loss := s.core.LastBatchLoss()
				for i, it := range items {
					s.deliver(it, replies[i], now, loss, nil)
				}
				if telemetry {
					s.workerSpan("worker.scatter", insScat, scatStart, len(items))
				}
				s.maybeCheckpoint(len(items))
				continue
			}
			// The coalesced pass failed during pre-flight, before the
			// optimiser stepped (ProcessBatch guarantees it), so
			// retrying item by item cannot double-apply anything — and
			// it pins the failure on the malformed contribution
			// instead of the batch.
		}
		for _, it := range items {
			now := s.now()
			var procStart time.Time
			if telemetry {
				procStart = time.Now()
			}
			reply, err := s.process(it, now)
			if telemetry {
				s.workerSpan("worker.process", insProc, procStart, 1)
			}
			var scatStart time.Time
			if telemetry {
				scatStart = time.Now()
			}
			s.deliver(it, reply, now, s.core.LastBatchLoss(), err)
			if telemetry {
				s.workerSpan("worker.scatter", insScat, scatStart, 1)
			}
		}
		s.maybeCheckpoint(len(items))
	}
}

// maybeCheckpoint writes a checkpoint once enough steps have accumulated
// since the last one.
func (s *Server) maybeCheckpoint(n int) {
	if s.cfg.Checkpoint == nil || s.cfg.CheckpointEvery <= 0 {
		return
	}
	s.ckptDue += n
	if s.ckptDue < s.cfg.CheckpointEvery {
		return
	}
	s.ckptDue = 0
	s.checkpoint()
}

// checkpoint invokes the configured sink and records the outcome. Called
// only while the model is not mid-pass: from the worker between passes,
// or after it exited. Only successful writes count toward
// Snapshot.Checkpoints; a failing sink shows up as CheckpointErr with
// the counter frozen.
func (s *Server) checkpoint() {
	// A checkpoint containing NaN weights restores into a poisoned
	// server, which is exactly the outcome the verified checkpoint chain
	// exists to prevent: skip the write, so the last good generation
	// stays the newest on disk.
	var err error
	if finite(s.core.Stack.Params()) {
		err = s.cfg.Checkpoint(s.core)
	} else {
		err = errors.New("cluster: checkpoint skipped, the server weights are non-finite")
	}
	s.mu.Lock()
	if err == nil {
		s.checkpoints++
	}
	s.ckptErr = err
	s.mu.Unlock()
}

// finite reports whether every value of every parameter is finite.
func finite(params []*nn.Param) bool {
	for _, p := range params {
		for _, v := range p.Value.Data() {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return false
			}
		}
	}
	return true
}

// deliver finishes one served item: per-session bookkeeping, eviction on
// a processing error, and the gradient send. loss is the raw batch loss
// of the pass that served this item; it feeds the server's loss curve
// under s.mu.
// The reply is cached before any send attempt, so a session that is
// parked — or swaps connections mid-batch — can be answered from the
// cache when the client resends.
func (s *Server) deliver(it queue.Item, reply *transport.Message, now time.Duration, loss float64, procErr error) {
	s.mu.Lock()
	sess := s.sessions[it.ClientID()]
	s.mu.Unlock()
	if sess != nil {
		sess.pending.Add(-1) // the item left the queue either way
		// The straggler clock measures the *client's* silence. An
		// item can sit in a congested queue longer than the timeout;
		// restart the window at serve time or a healthy lock-step
		// client would look idle the instant its wait ended.
		sess.lastActive.Store(int64(s.now()))
	}
	if procErr != nil {
		// A malformed contribution (wrong cut point, corrupt batch)
		// must not take the whole cluster down: evict the offending
		// client and keep serving the others.
		s.evict(it.ClientID(), procErr)
		return
	}
	s.mu.Lock()
	s.steps++
	s.observeStepLocked(time.Now())
	s.losses.Observe(loss)
	s.lastLoss = s.losses.Last()
	var conn transport.Conn
	parked := false
	if sess != nil {
		sess.served++
		sess.lastStaleness = it.Staleness(now)
		sess.lastReply = reply
		conn = sess.conn
		parked = sess.state == stateParked
	}
	s.mu.Unlock()
	// Service latency — enqueue to gradient ready — is the basis of the
	// RetryAfter hint.
	s.svcLat.Observe(it.Staleness(s.now()).Seconds())
	if sess == nil {
		return // client left before its item was served
	}
	if parked {
		return // no live carrier; the cached reply waits for the resume
	}
	if err := s.sendTimed(conn, reply); err != nil {
		if errors.Is(err, os.ErrDeadlineExceeded) {
			// A stalled reader: the client is alive but not draining its
			// side, so its TCP window filled and the send overran
			// SendTimeout. Parking would leave the cached reply waiting on
			// a wedged peer; evict so the worker that serves everyone is
			// never blocked on it again.
			s.evict(sess.id, fmt.Errorf("cluster: client %d stalled reading its reply for %v", sess.id, s.cfg.SendTimeout))
			return
		}
		if s.cfg.ResumeGrace > 0 {
			// The carrier died between enqueue and reply. The receive
			// loop will park the session, and the cached reply covers
			// the client's resend after resume — not an error yet.
			return
		}
		// The client died between enqueue and reply; record it on
		// the session and keep serving the others.
		s.mu.Lock()
		s.transition(sess, evFail, fmt.Errorf("cluster: send gradient to client %d: %w", sess.id, err))
		s.mu.Unlock()
	}
}

// sendTimed sends one worker-originated message, bounding the write
// with Config.SendTimeout when the carrier supports write deadlines. A
// deadline overrun leaves the carrier's buffered framing state
// undefined, so callers must treat the connection as dead afterwards.
func (s *Server) sendTimed(conn transport.Conn, m *transport.Message) error {
	type writeDeadliner interface{ SetWriteDeadline(time.Time) error }
	if s.cfg.SendTimeout > 0 {
		if wd, ok := conn.(writeDeadliner); ok {
			_ = wd.SetWriteDeadline(time.Now().Add(s.cfg.SendTimeout))
			err := conn.Send(m)
			_ = wd.SetWriteDeadline(time.Time{})
			return err
		}
	}
	return conn.Send(m)
}

// shedExpired finishes one deadline-shed item: its client has been
// waiting longer than WorkDeadline, so instead of a model pass it gets
// a RefusalExpired notice telling it to resend (the adaptive-timeout
// client will already be about to). The dedup watermark is rolled back
// under the lock so the resend is admitted rather than mistaken for a
// duplicate of the batch that was never trained on.
func (s *Server) shedExpired(it queue.Item) {
	s.mu.Lock()
	s.shed++
	sess := s.sessions[it.ClientID()]
	var conn transport.Conn
	parked := true
	if sess != nil {
		sess.pending.Add(-1)
		sess.lastActive.Store(int64(s.now()))
		if sess.maxAdmitted == it.Msg.Seq {
			// Lock-step means the shed seq still holds the watermark
			// unless a newer admission already superseded it.
			sess.maxAdmitted = it.Msg.Seq - 1
		}
		conn, parked = sess.conn, sess.state == stateParked
	}
	hint := s.retryAfterHint()
	s.mu.Unlock()
	if sess == nil || parked || conn == nil {
		return
	}
	_ = s.sendTimed(conn, &transport.Message{
		Type: transport.MsgControl, ClientID: it.ClientID(), Seq: it.Msg.Seq,
		Note: core.ExpiredNote, Code: transport.RefusalExpired,
		RetryAfter: hint, SentAt: s.now(),
	})
}

// retryAfterFloor is the smallest RetryAfter hint a refusal carries.
const retryAfterFloor = 25 * time.Millisecond

// retryAfterHint is the backoff hint attached to refusals and sheds:
// retryAfterFloor, raised to twice the observed p95 service latency so a
// refused client's retry lands after the backlog it was refused over
// has had time to drain, capped at 2s.
func (s *Server) retryAfterHint() time.Duration {
	hint := retryAfterFloor
	if p95 := time.Duration(2 * s.svcLat.Quantile(0.95) * float64(time.Second)); p95 > hint {
		hint = p95
	}
	if hint > 2*time.Second {
		hint = 2 * time.Second
	}
	return hint
}

// process runs one item through the model, converting
// the nn package's shape-assertion panics (a client trained with the
// wrong cut point sends activations the server stack cannot consume)
// into errors attributable to the offending client.
func (s *Server) process(it queue.Item, now time.Duration) (reply *transport.Message, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("cluster: processing client %d seq %d: %v",
				it.ClientID(), it.Msg.Seq, r)
		}
	}()
	return s.core.Process(it, now)
}

// processBatch runs one coalesced pass over already-popped items,
// converting panics into an error. A batch failure is not attributable
// to a single client — the worker retries the items individually to
// find the offender.
func (s *Server) processBatch(items []queue.Item, now time.Duration) (replies []*transport.Message, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("cluster: processing coalesced batch of %d: %v", len(items), r)
		}
	}()
	return s.core.ProcessBatch(items, now)
}

// noteCorruptFrame records one inbound frame rejected by its CRC32C
// trailer: the snapshot counter, the stsl_corrupt_frames_total series,
// and a trace event naming the session it arrived on.
func (s *Server) noteCorruptFrame(clientID int) {
	s.mu.Lock()
	s.corruptFrames++
	s.mu.Unlock()
	if s.ins != nil {
		s.ins.corruptFrames.Inc()
	}
	s.tr.Event("frame.corrupt", clientID, -1, "crc32c mismatch")
}

// quarantine terminally ends a hostile session and blocklists its client
// id. Eviction alone is not enough: an evicted client with retry enabled
// rejoins and resumes poisoning, so the blocklist makes the ruling stick
// for the server's lifetime. The abort note tells a well-behaved client
// whose hardware went bad why it is being turned away.
func (s *Server) quarantine(sess *session, conn transport.Conn, why string) error {
	err := fmt.Errorf("cluster: client %d quarantined: %s", sess.id, why)
	s.mu.Lock()
	s.quarantined[sess.id] = why
	// The recorded error keeps finishSession from parking the session:
	// quarantine must end it, not hold its slot open for a resume.
	s.transition(sess, evQuarantine, err)
	s.mu.Unlock()
	s.abort(conn, sess.id, "quarantined: "+why)
	s.q.Deactivate(sess.id)
	return err
}

// evict terminates one client's session after a processing failure,
// keeping the rest of the cluster alive. A live session ends when its
// receive loop sees the closed carrier; a parked one ends here.
func (s *Server) evict(clientID int, cause error) {
	s.mu.Lock()
	sess := s.sessions[clientID]
	var conn transport.Conn
	if sess != nil && s.transition(sess, evFail, cause) {
		conn = sess.conn
	}
	s.mu.Unlock()
	if conn != nil {
		conn.Close()
	}
	s.q.Deactivate(clientID)
}

// janitor ends sessions that overstayed a deadline: live sessions silent
// past StragglerTimeout, and parked sessions whose client did not resume
// within ResumeGrace. The two cases are deliberately distinct — a parked
// session is *known* disconnected and is judged on grace, never on
// silence.
func (s *Server) janitor() {
	defer s.wg.Done()
	deadline := s.cfg.StragglerTimeout
	if deadline <= 0 || (s.cfg.ResumeGrace > 0 && s.cfg.ResumeGrace < deadline) {
		deadline = s.cfg.ResumeGrace
	}
	period := deadline / 4
	if period < 5*time.Millisecond {
		period = 5 * time.Millisecond
	}
	t := time.NewTicker(period)
	defer t.Stop()
	for {
		select {
		case <-s.ctx.Done():
			return
		case <-t.C:
		}
		now := s.now()
		var drop []*session
		var conns []transport.Conn
		s.mu.Lock()
		for _, sess := range s.sessions {
			var err error
			switch sess.state {
			case stateParked:
				if offline := now - sess.parkedAt; offline > s.cfg.ResumeGrace {
					err = fmt.Errorf("cluster: client %d evicted after %v offline (resume grace expired)",
						sess.id, offline.Round(time.Millisecond))
				}
			case stateJoined:
				// A session with queued work is waiting on the server,
				// not the other way round.
				idle := now - time.Duration(sess.lastActive.Load())
				if s.cfg.StragglerTimeout > 0 && sess.pending.Load() == 0 && idle > s.cfg.StragglerTimeout {
					err = fmt.Errorf("cluster: client %d dropped as straggler after %v silence",
						sess.id, idle.Round(time.Millisecond))
				}
			}
			if err != nil && s.transition(sess, evFail, err) {
				drop = append(drop, sess)
				conns = append(conns, sess.conn)
			}
		}
		s.mu.Unlock()
		for i, sess := range drop {
			conns[i].Close()
			s.q.Deactivate(sess.id)
		}
	}
}

// Attach hands a freshly accepted connection to the server. The session
// goroutine performs the join (or resume) handshake and then pumps
// activations into the scheduling queue until the client leaves.
func (s *Server) Attach(conn transport.Conn) {
	if s.cfg.Checksum {
		// Inbound decoding is self-describing; this only upgrades the
		// server's own sends to checksummed framing (no-op on carriers
		// without a wire format).
		transport.SetChecksum(conn, true)
	}
	s.wg.Add(1)
	go s.sessionLoop(conn)
}

// ServeListener accepts connections until the listener fails or the
// server stops, attaching each. It blocks; run it in a goroutine when
// combined with AwaitClients.
func (s *Server) ServeListener(lis *transport.Listener) {
	stop := context.AfterFunc(s.ctx, func() { lis.Close() })
	defer stop()
	for {
		conn, err := lis.Accept()
		if err != nil {
			return
		}
		s.Attach(conn)
	}
}

func (s *Server) sessionLoop(conn transport.Conn) {
	defer s.wg.Done()
	defer conn.Close()
	// A blocked Recv must not outlive the server.
	stop := context.AfterFunc(s.ctx, func() { conn.Close() })
	defer stop()

	// A connection that never introduces itself is a pre-join straggler
	// the janitor cannot see (it only scans joined sessions) — the
	// slow-loris pattern — so the handshake wait gets its own timeout.
	var joinTimer *time.Timer
	if d := s.cfg.StragglerTimeout; d > 0 {
		joinTimer = time.AfterFunc(d, func() { conn.Close() })
	}
	first, err := conn.Recv()
	if joinTimer != nil {
		joinTimer.Stop()
	}
	if err != nil {
		return // connection died before introducing itself
	}
	if first.Type != transport.MsgControl ||
		(first.Note != core.JoinNote && first.Note != core.ResumeNote) {
		s.abort(conn, 0, "expected join")
		return
	}
	var sess *session
	if first.Note == core.ResumeNote {
		sess = s.resume(conn, first)
	} else {
		sess = s.join(conn, first)
	}
	if sess == nil {
		return // the handshake helper already sent the abort
	}

	if err := conn.Send(&transport.Message{
		Type: transport.MsgControl, ClientID: sess.id, Seq: sess.token,
		Note: core.WelcomeNote, SentAt: s.now(),
	}); err != nil {
		s.finishSession(sess, conn, err)
		return
	}
	s.finishSession(sess, conn, s.receive(sess, conn))
}

// abort refuses a handshake or ends a session with an abort note.
func (s *Server) abort(conn transport.Conn, clientID int, why string) {
	_ = conn.Send(&transport.Message{
		Type: transport.MsgControl, ClientID: clientID,
		Note: core.AbortNote + ": " + why, SentAt: s.now(),
	})
}

// registerLocked creates and registers a fresh session with a new token.
// Caller must hold s.mu.
func (s *Server) registerLocked(id int, conn transport.Conn) *session {
	sess := &session{id: id, conn: conn, maxAdmitted: -1}
	for sess.token == 0 {
		sess.token = int(s.tokens.Uint64() & 0x7fffffff) // fits the wire's 31-bit Seq
	}
	sess.lastActive.Store(int64(s.now()))
	s.sessions[id] = sess
	s.transition(sess, evJoin, nil)
	return sess
}

// joinFreshLocked registers a session that takes a new admission slot, or,
// at the MaxSessions cap, counts and sends a structured refusal instead.
// Caller must hold s.mu; joinFreshLocked unlocks it.
func (s *Server) joinFreshLocked(id int, conn transport.Conn) *session {
	if s.cfg.MaxSessions <= 0 || s.live < s.cfg.MaxSessions {
		sess := s.registerLocked(id, conn)
		s.mu.Unlock()
		return sess
	}
	const why = "session cap reached"
	s.refused++
	hint := s.retryAfterHint()
	s.lifecycle("session.refuse", id, why)
	s.mu.Unlock()
	_ = conn.Send(&transport.Message{
		Type: transport.MsgControl, ClientID: id,
		Note: core.RefusedNote + ": " + why, Code: transport.RefusalOverloaded,
		RetryAfter: hint, SentAt: s.now(),
	})
	return nil
}

// join handles a fresh join handshake. A *live* duplicate id is refused;
// a *parked* one is displaced — a client that joins instead of resuming
// either never received its welcome (so it holds no token and made no
// progress) or restarted from scratch, and in both cases the right
// outcome is a clean new incarnation, not a terminal abort on what the
// client experiences as a transient first-exchange fault. The displaced
// incarnation ends without error (a leave); its queued items drain
// through the dedup-safe serve path.
func (s *Server) join(conn transport.Conn, first *transport.Message) *session {
	s.mu.Lock()
	if why, bad := s.quarantined[first.ClientID]; bad {
		s.mu.Unlock()
		s.abort(conn, first.ClientID, "quarantined: "+why)
		return nil
	}
	old, exists := s.sessions[first.ClientID]
	if exists && (old.state == stateJoined || old.state == stateDone) {
		s.mu.Unlock()
		s.abort(conn, first.ClientID, "duplicate client id")
		return nil
	}
	if !exists || old.state != stateParked {
		return s.joinFreshLocked(first.ClientID, conn)
	}
	// Admission control applies only to joins that would consume a new
	// slot; displacing a parked incarnation swaps slots 1:1 and must
	// survive overload — it is how a wedged client recovers.
	s.transition(old, evEnd, nil)
	oldConn := old.conn
	sess := s.registerLocked(first.ClientID, conn)
	s.mu.Unlock()
	oldConn.Close()
	return sess
}

// resume handles a reconnect handshake: a parked (or half-open) session
// presenting the right token reclaims its id, queued items, and reply
// cache on the new carrier. A session this server does not hold — it
// restarted, or grace already expired — is accepted as a fresh join, so
// a client with retry enabled survives a server restart transparently.
func (s *Server) resume(conn transport.Conn, first *transport.Message) *session {
	s.mu.Lock()
	sess, ok := s.sessions[first.ClientID]
	why := ""
	switch q, bad := s.quarantined[first.ClientID]; {
	case bad:
		why = "quarantined: " + q
	case !ok || sess.state.terminal():
		// Resume-as-fresh-join consumes a new slot, so it faces the same
		// admission control as a join. A genuine resume below does not:
		// its slot is already held.
		return s.joinFreshLocked(first.ClientID, conn)
	case sess.state == stateDone:
		why = "session already completed"
	case sess.err != nil:
		why = "session terminated"
	case sess.token != first.Seq:
		why = "bad resume token"
	}
	if why != "" {
		s.mu.Unlock()
		s.abort(conn, first.ClientID, why)
		return nil
	}
	old := sess.conn
	sess.conn = conn
	s.transition(sess, evResume, nil)
	s.mu.Unlock()
	if old != nil && old != conn {
		// The previous carrier may still be half-open (the client saw
		// the death first); force its receive loop out. That loop will
		// find sess.conn changed and exit without touching the session.
		old.Close()
	}
	return sess
}

// receive pumps one carrier of a joined session until the client leaves,
// the carrier dies, or a resume supersedes it.
func (s *Server) receive(sess *session, conn transport.Conn) error {
	for {
		msg, err := conn.Recv()
		if err != nil {
			if errors.Is(err, transport.ErrChecksum) {
				// The CRC trailer caught a corrupted frame. Framing
				// survived — the stream is positioned at the next frame —
				// so count it and keep receiving: the client's adaptive
				// resend recovers the message and dedup keeps the batch
				// exactly-once. Closing the connection here would turn a
				// detected single-frame fault into a full reconnect.
				s.noteCorruptFrame(sess.id)
				continue
			}
			return err
		}
		sess.lastActive.Store(int64(s.now()))
		switch msg.Type {
		case transport.MsgActivation:
			if msg.ClientID != sess.id {
				return violation("cluster: session %d sent activation for client %d", sess.id, msg.ClientID)
			}
			if msg.Seq < 0 {
				// Negative seqs would corrupt the dedup watermark.
				return violation("cluster: session %d sent negative seq %d", sess.id, msg.Seq)
			}
			if err := s.admit(sess, conn, msg); err != nil {
				return err
			}
		case transport.MsgControl:
			if msg.Note == core.DoneNote {
				s.mu.Lock()
				s.transition(sess, evDone, nil)
				s.mu.Unlock()
				s.q.Deactivate(sess.id)
			}
		default:
			return violation("cluster: session %d sent unexpected %v", sess.id, msg.Type)
		}
	}
}

// admit pushes one activation into the scheduling queue, honouring the
// depth cap: at the cap this session goroutine waits for headroom, so
// backpressure propagates to the client through the transport.
//
// Admission is exactly-once per sequence number: a reconnecting client
// resends its in-flight batch, and a retransmitting network can deliver
// twice. The seq is claimed under the lock before the push; a duplicate
// of an already-served seq is answered from the reply cache, a duplicate
// of a still-queued seq is dropped (its reply is coming).
func (s *Server) admit(sess *session, conn transport.Conn, msg *transport.Message) error {
	if s.san != nil && msg.Payload != nil {
		// The sanitizer runs before the dedup claim, outside s.mu: a
		// bounced payload leaves its seq unclaimed, so the client's
		// mandated resend of the same poison is screened again and
		// escalates suspicion instead of slipping through as a duplicate.
		verdict, score, why := s.san.check(sess.id, msg.Payload.Data())
		if s.ins != nil && (score > 0 || verdict != sanitizeOK) {
			s.ins.suspicionGauge(sess.id).Set(score)
		}
		switch verdict {
		case sanitizeQuarantine:
			return s.quarantine(sess, conn, why)
		case sanitizeReject:
			// Below the quarantine threshold the payload is still never
			// queued — poison must not reach the model — but the session
			// survives: bounce it with a RetryLater hint.
			s.tr.Event("session.suspect", sess.id, msg.Seq, why)
			return conn.Send(&transport.Message{
				Type: transport.MsgControl, ClientID: sess.id, Seq: msg.Seq,
				Note: core.RejectedNote, Code: transport.RefusalRetryLater,
				RetryAfter: s.retryAfterHint(), SentAt: s.now(),
			})
		}
	}
	s.mu.Lock()
	if msg.Seq <= sess.maxAdmitted {
		var cached *transport.Message
		if sess.lastReply != nil && sess.lastReply.Seq == msg.Seq {
			cached = sess.lastReply
		}
		s.mu.Unlock()
		if cached != nil {
			return conn.Send(cached)
		}
		return nil
	}
	sess.maxAdmitted = msg.Seq
	s.mu.Unlock()

	it := queue.Item{Msg: msg, ArrivedAt: s.now()}
	if s.cfg.WorkDeadline > 0 {
		it.Deadline = it.ArrivedAt + s.cfg.WorkDeadline
	}
	// Count the work as pending before it becomes poppable, so the
	// janitor never sees a gap between push and accounting.
	sess.pending.Add(1)

	// At the cap, wait for headroom and retry. The queue counts the park
	// (Instruments.Parked) on the first refusal only. An abandoned
	// admission keeps its seq on the dedup watermark: it is abandoned
	// only at shutdown or once the session is closed (an error recorded,
	// or ended), so the session ends, and a later join or resume of this
	// id registers a fresh session whose watermark starts at -1.
	for first := true; !s.q.TryPushParking(it, s.cfg.QueueCap, first); first = false {
		select {
		case <-s.q.Popped():
		case <-time.After(5 * time.Millisecond):
			// Popped is edge-triggered and shared; poll so a dropped
			// wakeup cannot park a session forever.
		case <-s.ctx.Done():
			sess.pending.Add(-1)
			return s.ctx.Err()
		}
		if sess.closed.Load() {
			sess.pending.Add(-1)
			return fmt.Errorf("cluster: session %d closed while parked", sess.id)
		}
	}
	s.core.QueueMetrics.ObserveOccupancy(s.q.Len())
	return nil
}

// finishSession resolves the end of one carrier's receive loop. A
// superseded carrier (resume swapped a new one in) is ignored; a lost
// connection within the resume grace parks the session; anything else —
// clean leave, protocol violation, shutdown — ends it.
func (s *Server) finishSession(sess *session, conn transport.Conn, err error) {
	s.mu.Lock()
	if sess.conn != conn {
		// A resume superseded this carrier mid-loop; the new receive
		// loop owns the session now.
		s.mu.Unlock()
		return
	}
	var pv protocolViolation
	isViolation := errors.As(err, &pv)
	if errors.Is(err, transport.ErrClosed) || errors.Is(err, context.Canceled) {
		err = nil
	}
	// The connection is gone but the client may come back: park the
	// session instead of ending it. Queued items stay in the queue,
	// replies accumulate in the cache, the janitor counts grace. A done
	// session, or one with a recorded error, cannot park.
	if !isViolation && s.cfg.ResumeGrace > 0 && s.ctx.Err() == nil &&
		s.transition(sess, evPark, nil) {
		s.mu.Unlock()
		return
	}
	// A clean end is a leave, an end with a recorded error (processing
	// eviction, straggler drop, protocol violation) is an evict.
	s.transition(sess, evEnd, err)
	s.mu.Unlock()
	s.q.Deactivate(sess.id)
}

// AwaitClients blocks until at least n clients have joined and every
// joined session has finished (announced done, or left), then returns
// the combined session errors (nil when all completed cleanly). A parked
// session counts as unfinished — it either resumes or is evicted when
// its grace expires. It returns early on server shutdown or ctx
// cancellation.
func (s *Server) AwaitClients(ctx context.Context, n int) error {
	stop := context.AfterFunc(ctx, func() {
		s.mu.Lock()
		s.cond.Broadcast()
		s.mu.Unlock()
	})
	defer stop()
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		if err := s.ctx.Err(); err != nil {
			return fmt.Errorf("cluster: server stopped: %w", err)
		}
		// A session that holds no admission slot is done or gone.
		finished, errs := s.joined >= n, []error(nil)
		for _, sess := range s.sessions {
			finished = finished && sess.state.slots() == 0
			if sess.err != nil {
				errs = append(errs, sess.err)
			}
		}
		if finished {
			return errors.Join(errs...)
		}
		s.cond.Wait()
	}
}

// Shutdown stops the server: cancels the worker and janitor, ends parked
// sessions (a leave — no receive loop remains to end them), closes all
// session connections, and waits (bounded by ctx) for every goroutine to
// exit. With a Checkpoint sink configured, the worker writes a final
// checkpoint on its way out.
func (s *Server) Shutdown(ctx context.Context) error {
	s.cancel()
	s.mu.Lock()
	conns := make([]transport.Conn, 0, len(s.sessions))
	for _, sess := range s.sessions {
		if sess.state == stateParked {
			s.transition(sess, evEnd, nil)
		} else if !sess.state.terminal() {
			conns = append(conns, sess.conn)
		}
	}
	s.mu.Unlock()
	for _, c := range conns {
		c.Close()
	}
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("cluster: shutdown timed out: %w", ctx.Err())
	}
}

// FinalLoss reports the window-averaged training loss over the last N
// served batches — the same measurement the virtual-time simulation
// reports. Safe from any goroutine.
func (s *Server) FinalLoss() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.losses.Last()
}

// Snapshot captures live metrics; safe from any goroutine at any time.
func (s *Server) Snapshot() Snapshot {
	now := time.Now()
	s.mu.Lock()
	snap := Snapshot{
		ServerSteps:       s.steps,
		Refused:           s.refused,
		Shed:              s.shed,
		Checkpoints:       s.checkpoints,
		LastLoss:          s.lastLoss,
		CorruptFrames:     s.corruptFrames,
		Quarantined:       len(s.quarantined),
		Clients:           s.snapshotClients(),
		StepsPerSecWindow: s.windowRateLocked(now),
	}
	if s.ckptErr != nil {
		snap.CheckpointErr = s.ckptErr.Error()
	}
	s.mu.Unlock()
	snap.Uptime = now.Sub(s.startWall)
	// Guard the division against a snapshot taken immediately after
	// Start: a near-zero uptime would report an absurd lifetime rate
	// (steps / a-few-nanoseconds).
	if snap.Uptime >= time.Millisecond {
		snap.StepsPerSec = float64(snap.ServerSteps) / snap.Uptime.Seconds()
	}
	snap.QueueDepth = s.q.Len()
	snap.MaxQueueDepth = s.core.QueueMetrics.MaxOccupancy()
	return snap
}
