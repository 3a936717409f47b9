package cluster

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/stsl/stsl/internal/core"
	"github.com/stsl/stsl/internal/obs"
	"github.com/stsl/stsl/internal/transport"
)

// Typed overload errors. Callers match them with errors.Is against
// RunClient's return to distinguish "the server is drowning" from a
// protocol failure — the load generator keys its refusal-rate metric on
// exactly this.
var (
	// ErrServerOverloaded marks a join refused by admission control: the
	// session cap is full. The refusal carries a RetryAfter hint; with a
	// Dial configured the client backs off and retries on its own, so
	// RunClient only returns this when it cannot (no Dial).
	ErrServerOverloaded = errors.New("cluster: server overloaded")
	// ErrRetryLater marks any transient, hinted refusal — overload
	// refusals match it too, so it is the broad "worth retrying" class.
	ErrRetryLater = errors.New("cluster: server asked to retry later")
)

// ClientConfig parameterises one live end-system actor.
type ClientConfig struct {
	// Steps is the number of batches to contribute (required).
	Steps int
	// GradTimeout is the hard bound on waiting for any single gradient
	// before declaring the server a straggler, and for a welcome before
	// redialling (failing, without Dial); 0 waits forever. Once a few
	// round trips have been observed the client waits adaptively — an
	// RTO-style SRTT + 4·RTTVAR window, at least 2·SRTT and 10ms,
	// doubling per fire — and resends well before this bound.
	GradTimeout time.Duration
	// Dial, when non-nil, re-establishes a lost connection: the client
	// redials, resumes its session with the token issued at join, and
	// resends the in-flight batch — surviving link drops, frame
	// truncation, and server restarts. It also enables admission-refusal
	// retries: a refused join waits out the server's RetryAfter hint
	// (plus decorrelated jitter) and redials. nil keeps the original
	// fail-on-first-fault behaviour.
	Dial func() (transport.Conn, error)
	// MaxReconnects bounds reconnection attempts after connection losses
	// across the whole run (default 8 when Dial is set). Failed dials
	// count: a server that stays down exhausts the budget. Admission
	// refusals do NOT count — the server is alive and explicitly asked
	// for patience; those retries are bounded by the retry budget instead.
	MaxReconnects int
	// ReconnectBackoff is the decorrelated-jitter floor of the pause
	// before each redial (default 5ms). Delays grow up to 100× the floor
	// and desynchronise a cohort of clients that failed together.
	ReconnectBackoff time.Duration
	// BackoffSeed seeds the jitter streams (0 derives one from the wall
	// clock and the end-system id). Fix it for reproducible retry traces.
	BackoffSeed uint64
	// Now supplies protocol timestamps; nil uses a monotonic wall clock
	// started at the first batch.
	Now func() time.Duration
	// GradRTT, when non-nil, records the send→gradient-applied round
	// trip of every batch in seconds — queue wait, server compute, and
	// both wire legs, as this client experiences them. After a resend
	// (bounce, reconnect) the clock restarts at the resend, so the
	// histogram reflects delivery latency, not retry budgets.
	GradRTT *obs.Histogram
}

// ClientResult summarises one client's run.
type ClientResult struct {
	// Steps is the number of batches contributed (gradient applied).
	Steps int
	// Epochs is the number of completed local epochs.
	Epochs int
	// Rejected counts activations the server bounced (the sanitizer's
	// below-quarantine verdict) that forced a resend.
	Rejected int
	// Reconnects counts redial attempts made after connection losses
	// (successful or not).
	Reconnects int
	// Refused counts admission refusals the client waited out and retried.
	Refused int
	// Resends counts batch retransmissions triggered by the adaptive
	// wait window or a deadline-shed notice — not bounced batches,
	// which Rejected counts.
	Resends int
	// JoinAttempts records the protocol timestamp of every join attempt
	// (first contact and post-refusal retries). A cohort refused together
	// should NOT retry together — the join-storm chaos test asserts the
	// decorrelated jitter spreads these out.
	JoinAttempts []time.Duration
	// CorruptFrames counts inbound frames this client's receive pump
	// rejected on a CRC32C mismatch (and recovered from by resending).
	CorruptFrames int
}

// refusedError is a handshake rejection: the server answered, and the
// answer was no. A refusal that matches ErrRetryLater is worth retrying
// after backing off.
type refusedError struct {
	note string
	code transport.RefusalCode
}

func (e refusedError) Error() string { return "cluster: server refused session: " + e.note }

// Is maps refusal codes onto the package's typed errors so callers can
// errors.Is without reaching into the wire representation.
func (e refusedError) Is(target error) bool {
	switch target {
	case ErrServerOverloaded:
		return e.code == transport.RefusalOverloaded
	case ErrRetryLater:
		return e.code == transport.RefusalOverloaded || e.code == transport.RefusalRetryLater
	}
	return false
}

// errAwaitTimeout marks an await that gave up on its timer.
var errAwaitTimeout = errors.New("await timeout")

// pump decouples the network receive from the compute loop for one
// carrier. A new pump starts per (re)connection, so messages from a dead
// carrier never leak into the resumed session. It closes in when the
// carrier fails, behind every message received before, and it closes
// the carrier when the caller gives up, which unblocks a Send or Recv.
type pump struct {
	conn   transport.Conn
	in     chan *transport.Message
	err    error // why the carrier failed; read only after in is closed
	done   chan struct{}
	once   sync.Once
	unhook func() bool
}

func startPump(ctx context.Context, conn transport.Conn, corrupt *atomic.Int64) *pump {
	p := &pump{
		conn: conn,
		in:   make(chan *transport.Message, 4),
		done: make(chan struct{}),
	}
	p.unhook = context.AfterFunc(ctx, func() { conn.Close() })
	go func() {
		defer close(p.in)
		for {
			msg, err := conn.Recv()
			if err != nil {
				if errors.Is(err, transport.ErrChecksum) {
					// A corrupted frame, caught by its CRC trailer with the
					// stream still in sync: count and keep receiving. The
					// adaptive wait window resends the in-flight batch if
					// the lost frame was its gradient.
					corrupt.Add(1)
					continue
				}
				p.err = err
				return
			}
			select {
			case p.in <- msg:
			case <-p.done:
				return
			}
		}
	}()
	return p
}

func (p *pump) stop() {
	p.unhook()
	p.once.Do(func() { close(p.done) })
	p.conn.Close()
}

// RunClient drives one end-system over a live connection: join
// handshake, then the lock-step produce → upload → await gradient →
// apply loop, then a done announcement. Every decision is
// clientState.on's; this driver only performs the action it gets back
// and turns what the receive pump, the timer, a dial, an apply or ctx
// delivers into the next event. The receive runs in its own goroutine,
// so a slow or dead server is detected by the wait window (or ctx)
// instead of hanging the actor. With Dial configured the client is
// churn- and overload-tolerant: a lost connection is redialled and the
// session resumed by token, and a refused join backs off (the server's
// RetryAfter hint plus decorrelated jitter, paced by a retry token
// budget) and rejoins — the server's dedup-by-seq keeps every batch
// exactly-once through all of it.
func RunClient(ctx context.Context, es *core.EndSystem, conn transport.Conn, cfg ClientConfig) (*ClientResult, error) {
	if es == nil || conn == nil {
		return nil, fmt.Errorf("cluster: RunClient needs an end-system and a connection")
	}
	if cfg.Steps <= 0 {
		return nil, fmt.Errorf("cluster: RunClient needs positive steps, got %d", cfg.Steps)
	}
	// The end-system goes idle when its session ends, yet its owner may
	// keep it (a load generator keeps its whole fleet), so it stops
	// holding its convolution and batch scratch.
	defer es.DropScratch()
	now := cfg.Now
	if now == nil {
		start := time.Now()
		now = func() time.Duration { return time.Since(start) }
	}
	seed := cfg.BackoffSeed
	if seed == 0 {
		seed = uint64(time.Now().UnixNano()) ^ uint64(es.ID)<<32 ^ uint64(es.ID)
	}
	st := newClientState(es.ID, cfg, seed)
	res := &st.res
	var corrupt atomic.Int64
	p := startPump(ctx, conn, &corrupt)
	defer func() {
		p.stop()
		res.Epochs, res.CorruptFrames = es.Epoch(), int(corrupt.Load())
	}()

	var (
		reply, batch *transport.Message
		sent         time.Duration // when batch last went out
	)
	await := func(act clientAction) clientEvent {
		var tc <-chan time.Time
		if act.wait > 0 {
			t := time.NewTimer(act.wait)
			defer t.Stop()
			tc = t.C
		}
		select {
		case m, ok := <-p.in:
			if !ok {
				return clientEvent{kind: evConnLost, at: now(), err: fmt.Errorf("cluster: client %d connection lost: %w", es.ID, p.err)}
			}
			reply = m
			kind, err := classify(es, m)
			return clientEvent{kind: kind, at: now(), msg: m, err: err}
		case <-tc:
			kind := evHardTimeout
			if act.adaptive {
				kind = evAdaptiveTimeout
			}
			return clientEvent{kind: kind, at: now(), err: fmt.Errorf(
				"cluster: client %d timed out after %v awaiting server: %w", es.ID, act.wait, errAwaitTimeout)}
		case <-ctx.Done():
			return clientEvent{kind: evAbort, at: now()}
		}
	}

	ev := clientEvent{kind: evDialed, at: now()} // the caller dialled the first carrier
	for {
		if err := ctx.Err(); err != nil {
			// The caller gave up, which closed the carrier: whatever the
			// driver saw, the event is the abort.
			ev = clientEvent{kind: evAbort, at: ev.at, err: err}
		}
		act := st.on(ev)
		if act.sleep > 0 {
			select {
			case <-time.After(act.sleep):
			case <-ctx.Done():
				continue
			}
		}
		out := batch
		switch act.op {
		case opReturn:
			return res, act.err
		case opAwait:
			out = nil
		case opApply:
			if err := es.ApplyGradient(reply); err != nil {
				return res, fmt.Errorf("cluster: client %d apply step %d: %w", es.ID, res.Steps, err)
			}
			cfg.GradRTT.ObserveDuration(now() - sent)
			ev = clientEvent{kind: evApplied, at: now(), sent: sent}
			continue
		case opDial:
			p.stop()
			c, err := cfg.Dial()
			if err != nil {
				ev = clientEvent{kind: evDialFailed, at: now(), err: fmt.Errorf("cluster: client %d redial: %w", es.ID, err)}
				continue
			}
			p = startPump(ctx, c, &corrupt)
			ev = clientEvent{kind: evDialed, at: now()}
			continue
		case opHello, opDone:
			out = &transport.Message{Type: transport.MsgControl, ClientID: es.ID, Note: act.note, Seq: act.seq, SentAt: now()}
		case opProduce:
			var err error
			if batch, err = es.ProduceBatch(now()); err != nil {
				return res, fmt.Errorf("cluster: client %d produce step %d: %w", es.ID, res.Steps, err)
			}
			out = batch
		}
		if out != nil {
			if err := p.conn.Send(out); err != nil {
				ev = clientEvent{kind: evConnLost, at: now(), err: fmt.Errorf("cluster: client %d send: %w", es.ID, err)}
				continue
			}
			if act.op == opDone {
				return res, nil
			}
			if out == batch {
				sent = now()
			}
		}
		ev = await(act)
	}
}

// classify names the event a server message is; the error is an
// evAbort's cause.
func classify(es *core.EndSystem, m *transport.Message) (clientEventKind, error) {
	switch {
	case m.Type == transport.MsgGradient && es.HasOutstanding() && m.Seq == es.Outstanding():
		return evGradient, nil
	case m.Type == transport.MsgGradient:
		return evStaleGradient, nil
	case m.Type != transport.MsgControl:
		return evAbort, fmt.Errorf("cluster: client %d: unexpected %v", es.ID, m.Type)
	case m.Note == core.WelcomeNote:
		return evWelcome, nil
	case m.Note == core.RejectedNote:
		return evRejected, nil
	case m.Note == core.ExpiredNote:
		return evExpired, nil
	case errors.Is(refusedError{code: m.Code}, ErrRetryLater):
		return evRefusedHinted, nil
	}
	return evRefusedTerminal, nil
}
