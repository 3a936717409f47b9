package cluster

import (
	"fmt"
	"time"

	"github.com/stsl/stsl/internal/core"
	"github.com/stsl/stsl/internal/overload"
	"github.com/stsl/stsl/internal/transport"
)

// The retry discipline's fixed points.
const (
	rejectBackoff     = 2 * time.Millisecond // jitter floor before resending a bounced batch
	retryBurst        = 8                    // retry budget: tokens spendable ahead of the refill
	retryRefillPerSec = 4                    // retry budget: refill rate
	// The adaptive gradient wait is the RTO (SRTT + 4·RTTVAR), but never
	// less than srttFactor·SRTT or resendFloor: a steady step shrinks
	// RTTVAR until ordinary jitter would fire the RTO alone. Traced
	// SmallScale cut-1 rounds on a busy 2-CPU host had a gradient wait
	// p50 of 14.6 ms and a maximum of 34.2 ms (2.3×); at twice SRTT such
	// rounds resent up to 3 batches, so three times SRTT clears the
	// tail. The floor covers a scheduling or GC stall of a few ms when
	// the round trip itself is a millisecond.
	srttFactor  = 3
	resendFloor = 10 * time.Millisecond
)

// clientPhase is an end-system's place in its run (DESIGN.md §3.3). It
// changes only through clientState.on.
type clientPhase uint8

const (
	phaseHello    clientPhase = iota // handshake sent, awaiting the welcome
	phaseAwait                       // a batch in flight, awaiting its gradient
	phaseBackoff                     // no carrier: pausing, then dialling; a run starts here, already dialled
	phaseLeaving                     // every step applied; the done note goes out
	phaseFinished                    // the run ended with an error
)

// clientEventKind names what the driver saw: a server message, a timer,
// a carrier failure, a dial's outcome, or the caller giving up.
type clientEventKind uint8

const (
	evDialed          clientEventKind = iota // a fresh carrier is up
	evDialFailed                             // the dial failed
	evWelcome                                // the handshake was accepted
	evRefusedHinted                          // a control reply with a retry-later code
	evRefusedTerminal                        // any other control reply the protocol does not name
	evGradient                               // the in-flight batch's gradient
	evApplied                                // the driver applied that gradient
	evStaleGradient                          // a gradient for any other batch
	evRejected                               // the batch was bounced un-queued
	evExpired                                // the queued batch was shed past its deadline
	evAbort                                  // an unexpected message type, or the caller gave up
	evAdaptiveTimeout                        // the RTO window expired
	evHardTimeout                            // GradTimeout expired
	evConnLost                               // the carrier failed a send or a receive
)

// clientEvent is one input to the state machine, stamped with the time
// the driver saw it.
type clientEvent struct {
	kind clientEventKind
	at   time.Duration
	sent time.Duration      // when the in-flight batch last went out (evApplied)
	msg  *transport.Message // the server's message, for the events that are one
	err  error              // the cause: abort, timeout, conn-lost, dial-failed
}

// clientOp is the I/O an action asks of the driver.
type clientOp uint8

const (
	opAwait   clientOp = iota // keep awaiting the server's next message
	opApply                   // apply the gradient just received
	opHello                   // send the handshake, then await
	opProduce                 // produce the next batch, send it, then await
	opResend                  // send the in-flight batch again, then await
	opDone                    // send the done note and return
	opDial                    // retire the carrier and dial a fresh one
	opReturn                  // return err
)

// clientAction is what the driver does next: pause (sleep), then op. An
// op that awaits waits at most wait (0 = forever); adaptive marks that
// window as the RTO's, so its expiry is evAdaptiveTimeout.
type clientAction struct {
	op       clientOp
	sleep    time.Duration
	wait     time.Duration
	adaptive bool
	note     string // opHello, opDone
	seq      int    // opHello
	err      error  // opReturn
}

// clientState is one end-system's protocol state. on is its only
// transition: it reads no clock, sends, receives, dials or sleeps, and
// it owns every ClientResult counter, every jitter draw, every
// retry-budget withdrawal and every RTT sample. The driver supplies
// Epochs (the end-system's) and CorruptFrames (the receive pump's).
type clientState struct {
	phase         clientPhase
	id, steps     int
	canDial       bool
	maxReconnects int
	gradTimeout   time.Duration
	token         int           // session credential from the welcome; 0 before the first
	inFlight      bool          // a batch was produced and its gradient not yet applied
	resent        bool          // Karn's rule: sample the RTT only of a batch sent once
	scale         time.Duration // the adaptive window's multiplier, doubled per fire
	err           error         // the run's error once finished
	res           ClientResult
	joinJitter    overload.Backoff // redial pauses
	rejJitter     overload.Backoff // resend pauses after a bounce or a shed
	budget        overload.Budget  // charged by redials, refusal waits and adaptive resends
	rtt           *overload.RTTEstimator
}

func newClientState(id int, cfg ClientConfig, seed uint64) *clientState {
	maxReconnects := cfg.MaxReconnects
	if maxReconnects <= 0 {
		maxReconnects = 8
	}
	floor := cfg.ReconnectBackoff
	if floor <= 0 {
		floor = 5 * time.Millisecond
	}
	return &clientState{
		phase: phaseBackoff, id: id, steps: cfg.Steps, canDial: cfg.Dial != nil,
		maxReconnects: maxReconnects, gradTimeout: cfg.GradTimeout,
		joinJitter: *overload.NewBackoff(floor, seed),
		rejJitter:  *overload.NewBackoff(rejectBackoff, seed^0x9e3779b97f4a7c15),
		budget:     *overload.NewBudget(retryBurst, retryRefillPerSec),
		rtt:        overload.NewRTTEstimator(resendFloor, cfg.GradTimeout), // 30s when unbounded
	}
}

// on applies one event and returns what the driver must do next. An
// edge the table does not list is illegal and changes nothing: the
// driver keeps awaiting, or, once finished, returns. That covers a
// stale gradient or a duplicate welcome replayed by the reply cache or
// the network, and a gradient or notice outrunning the welcome on a
// resumed carrier (the in-flight batch is resent after the welcome, and
// the reply cache answers it).
func (s *clientState) on(ev clientEvent) clientAction {
	ph, refusal := s.phase, ev.kind == evRefusedHinted || ev.kind == evRefusedTerminal
	switch {
	case ph == phaseFinished:
		return clientAction{op: opReturn, err: s.err}
	case ev.kind == evAbort:
		return s.finish(ev.err)
	case ev.kind == evDialed && ph == phaseBackoff:
		s.phase = phaseHello
		if s.token != 0 {
			return clientAction{op: opHello, note: core.ResumeNote, seq: s.token, wait: s.gradTimeout}
		}
		s.res.JoinAttempts = append(s.res.JoinAttempts, ev.at)
		return clientAction{op: opHello, note: core.JoinNote, wait: s.gradTimeout}
	case ev.kind == evDialFailed && ph == phaseBackoff,
		ev.kind == evConnLost && ph != phaseBackoff,
		ev.kind == evHardTimeout && ph == phaseHello:
		return s.reconnect(ev)
	case ev.kind == evWelcome && ph == phaseHello:
		s.token = ev.msg.Seq
		s.joinJitter.Reset()
		return s.proceed()
	case ev.kind == evRefusedHinted && ph == phaseHello && s.canDial:
		// The server's hint plus a jitter draw (additive, so a cohort
		// refused with one hint still spreads out), paced by the budget.
		// The server is alive: MaxReconnects is not charged.
		s.res.Refused++
		s.phase = phaseBackoff
		return clientAction{op: opDial, sleep: s.spend(ev.at) + ev.msg.RetryAfter + s.joinJitter.Next()}
	case refusal && ph == phaseHello:
		// Terminal, or hinted with no Dial to act on the hint: the caller
		// gets the typed refusal.
		return s.finish(refusedError{note: ev.msg.Note, code: ev.msg.Code})
	case refusal && ph == phaseAwait:
		return s.finish(fmt.Errorf("cluster: client %d: server aborted: %s", s.id, ev.msg.Note))
	case ev.kind == evHardTimeout && ph == phaseAwait:
		return s.finish(ev.err)
	case ev.kind == evGradient && ph == phaseAwait:
		return clientAction{op: opApply}
	case ev.kind == evApplied && ph == phaseAwait:
		// The round trip runs from the send to the applied gradient.
		s.res.Steps++
		s.inFlight = false
		if !s.resent {
			s.rtt.Observe(ev.at - ev.sent)
		}
		return s.proceed()
	case ev.kind == evRejected && ph == phaseAwait:
		s.res.Rejected++
		return s.await(opResend, ev.msg.RetryAfter+s.rejJitter.Next())
	case ev.kind == evExpired && ph == phaseAwait:
		// Shed past its deadline with the server's watermark rolled
		// back: the resend is served.
		s.res.Resends++
		return s.await(opResend, ev.msg.RetryAfter+s.rejJitter.Next())
	case ev.kind == evAdaptiveTimeout && ph == phaseAwait:
		s.res.Resends++
		s.scale *= 2
		return s.await(opResend, s.spend(ev.at))
	}
	return s.await(opAwait, 0)
}

// proceed picks the next send once a carrier is welcomed or a gradient
// applied: the done note when every step is in, else the in-flight
// batch again (after a resume) or a new one.
func (s *clientState) proceed() clientAction {
	if s.res.Steps == s.steps {
		s.phase = phaseLeaving
		return clientAction{op: opDone, note: core.DoneNote}
	}
	s.phase = phaseAwait
	if s.inFlight {
		return s.await(opResend, 0)
	}
	s.inFlight, s.resent, s.scale = true, false, 1
	return s.await(opProduce, 0)
}

// await returns op, after sleep, with its wait window: GradTimeout, or
// once the estimator holds three samples the RTO-style window — never
// below srttFactor·SRTT, scaled by the adaptive resends so far — when
// that is shorter. A resend's round trip is no RTT sample (Karn's rule).
func (s *clientState) await(op clientOp, sleep time.Duration) clientAction {
	s.resent = s.resent || op == opResend
	act := clientAction{op: op, sleep: sleep, wait: s.gradTimeout}
	if s.phase == phaseAwait && s.rtt.Samples() >= 3 {
		if aw := s.scale * max(s.rtt.Timeout(), srttFactor*s.rtt.SRTT()); s.gradTimeout <= 0 || aw < s.gradTimeout {
			act.wait, act.adaptive = aw, true
		}
	}
	return act
}

// reconnect answers a lost carrier, a failed dial or a welcome that
// never came: a jittered pause paced by the budget, then a redial — at
// most maxReconnects a run, failed dials included.
func (s *clientState) reconnect(ev clientEvent) clientAction {
	if !s.canDial {
		return s.finish(ev.err)
	}
	if s.res.Reconnects >= s.maxReconnects {
		return s.finish(fmt.Errorf("cluster: client %d gave up after %d reconnect attempts: %w",
			s.id, s.res.Reconnects, ev.err))
	}
	s.res.Reconnects++
	s.phase = phaseBackoff
	return clientAction{op: opDial, sleep: s.spend(ev.at) + s.joinJitter.Next()}
}

// spend withdraws one retry token and returns the pause it costs: none
// inside the burst, the wait for the refill once the burst is spent.
// Throttling, not failing, keeps a cohort of retrying clients from
// amplifying the overload that bounced them.
func (s *clientState) spend(at time.Duration) time.Duration {
	if s.budget.Take(at) {
		return 0
	}
	wait := s.budget.NextAt(at) - at + time.Millisecond
	s.budget.Take(at + wait)
	return wait
}

func (s *clientState) finish(err error) clientAction {
	s.phase, s.err = phaseFinished, err
	return clientAction{op: opReturn, err: err}
}
