package cluster

import (
	"errors"
	"reflect"
	"testing"
	"time"

	"github.com/stsl/stsl/internal/core"
	"github.com/stsl/stsl/internal/overload"
	"github.com/stsl/stsl/internal/transport"
)

// Fixed inputs of the client state-machine tests.
const (
	tSeed   = 7
	tFloor  = 20 * time.Millisecond // ReconnectBackoff
	tGrad   = 5 * time.Second       // GradTimeout
	tHint   = 25 * time.Millisecond // a refusal's RetryAfter
	tBounce = 3 * time.Millisecond  // a bounce's or a shed's RetryAfter
	tRTT    = 10 * time.Millisecond // every clean round trip
	tAt     = 40 * time.Millisecond // when the event under test happens
	tSteps  = 8
	tMaxRec = 3
	tToken  = 42
)

// bareClient is a state as newClientState builds it for RunClient, with
// a Dial configured; it is never called.
func bareClient() *clientState {
	return newClientState(0, ClientConfig{
		Steps: tSteps, GradTimeout: tGrad, ReconnectBackoff: tFloor, MaxReconnects: tMaxRec,
		Dial: func() (transport.Conn, error) { return nil, errors.New("unused") },
	}, tSeed)
}

// feed applies events at time 0 and returns the last action.
func feed(s *clientState, evs ...clientEvent) clientAction {
	var act clientAction
	for _, ev := range evs {
		act = s.on(ev)
	}
	return act
}

var (
	tWelcome  = clientEvent{kind: evWelcome, msg: &transport.Message{Type: transport.MsgControl, Note: core.WelcomeNote, Seq: tToken}}
	tRefusal  = clientEvent{kind: evRefusedHinted, msg: &transport.Message{Type: transport.MsgControl, Note: core.RefusedNote, Code: transport.RefusalOverloaded, RetryAfter: tHint}}
	tLost     = clientEvent{kind: evConnLost, err: errors.New("carrier lost")}
	tRejected = clientEvent{kind: evRejected, msg: &transport.Message{Type: transport.MsgControl, Note: core.RejectedNote, Code: transport.RefusalRetryLater, RetryAfter: tBounce}}
)

// tGradient is the in-flight batch's gradient; cleanStep is it applied
// tRTT after the batch's send.
var tGradient = clientEvent{kind: evGradient}

func cleanStep(at time.Duration) clientEvent {
	return clientEvent{kind: evApplied, at: at, sent: at - tRTT}
}

// tokensLeft counts the retry tokens a copy of s's budget still holds at t.
func tokensLeft(s *clientState, t time.Duration) int {
	b := s.budget
	n := 0
	for b.Take(t) {
		n++
	}
	return n
}

// counters is ClientResult's counters, JoinAttempts by length.
type counters struct{ steps, rejected, reconnects, refused, resends, joins int }

func countersOf(r ClientResult) counters {
	return counters{r.Steps, r.Rejected, r.Reconnects, r.Refused, r.Resends, len(r.JoinAttempts)}
}

func (c counters) minus(d counters) counters {
	return counters{c.steps - d.steps, c.rejected - d.rejected, c.reconnects - d.reconnects,
		c.refused - d.refused, c.resends - d.resends, c.joins - d.joins}
}

// TestClientTransitions drives the end-system's state machine directly
// — a bare clientState, an injected time and a fixed seed, no carriers,
// goroutines or timers — over every (phase, event) pair. A listed edge
// must land in its phase with its action (op, sleep, wait), move the
// result counters, the retry tokens and the RTT samples by its deltas;
// an unlisted edge must change nothing at all. The traces subtest
// checks the seeded refusal pauses, the retry budget's refill wait and
// the reconnect bound over runs of events.
func TestClientTransitions(t *testing.T) {
	t.Run("traces", clientTraces)
	t.Run("steady-step-allocates-nothing", func(t *testing.T) {
		s := newClientState(0, ClientConfig{Steps: 1 << 30, GradTimeout: tGrad}, tSeed)
		feed(s, clientEvent{kind: evDialed}, tWelcome)
		if n := testing.AllocsPerRun(100, func() { feed(s, tGradient, cleanStep(0)) }); n != 0 {
			t.Fatalf("a gradient step allocated %v times, want 0", n)
		}
	})
	// The phases, each reached from a fresh state by the events a run
	// delivers (at time 0).
	froms := []struct {
		name  string
		reach []clientEvent
	}{
		{"backoff", nil}, // a run starts here, its first carrier dialled
		{"hello", []clientEvent{{kind: evDialed}}},
		{"await", []clientEvent{{kind: evDialed}, tWelcome}},
		// Three clean round trips warm the estimator: the window is
		// max(SRTT + 4·RTTVAR, srttFactor·SRTT) = max(21.25, 30) ms.
		{"await-warm", []clientEvent{{kind: evDialed}, tWelcome, tGradient, cleanStep(0), tGradient, cleanStep(0), tGradient, cleanStep(0)}},
		{"await-resent", []clientEvent{{kind: evDialed}, tWelcome, tRejected}},
		{"backoff-resume", []clientEvent{{kind: evDialed}, tWelcome, tLost}},
		{"leaving", append([]clientEvent{{kind: evDialed}, tWelcome},
			tGradient, cleanStep(0), tGradient, cleanStep(0), tGradient, cleanStep(0), tGradient, cleanStep(0),
			tGradient, cleanStep(0), tGradient, cleanStep(0), tGradient, cleanStep(0), tGradient, cleanStep(0))},
		{"finished", []clientEvent{{kind: evDialed}, {kind: evRefusedTerminal, msg: &transport.Message{Note: "abort: bad token"}}}},
	}
	cause := errors.New("cause")
	msg := func(note string, code transport.RefusalCode, hint time.Duration) *transport.Message {
		return &transport.Message{Type: transport.MsgControl, Note: note, Code: code, RetryAfter: hint}
	}
	events := []struct {
		name string
		ev   clientEvent
	}{
		{"dialed", clientEvent{kind: evDialed}},
		{"dial-failed", clientEvent{kind: evDialFailed, err: cause}},
		{"welcome", tWelcome},
		{"refused-hinted", tRefusal},
		{"refused-terminal", clientEvent{kind: evRefusedTerminal, msg: msg("abort: bad token", transport.RefusalNone, 0)}},
		{"gradient", tGradient},
		{"applied", cleanStep(tAt)},
		{"stale-gradient", clientEvent{kind: evStaleGradient}},
		{"rejected", tRejected},
		{"expired", clientEvent{kind: evExpired, msg: msg(core.ExpiredNote, transport.RefusalExpired, tBounce)}},
		{"abort", clientEvent{kind: evAbort, err: cause}},
		{"adaptive-timeout", clientEvent{kind: evAdaptiveTimeout, err: cause}},
		{"hard-timeout", clientEvent{kind: evHardTimeout, err: cause}},
		{"conn-lost", clientEvent{kind: evConnLost, err: cause}},
	}
	// An edge's sleep is hint plus the state's next join-jitter draw
	// (join) or reject-jitter draw (rej), as a twin state draws them.
	type edge struct {
		to        clientPhase
		op        clientOp
		hint      time.Duration
		join, rej bool
		wait      time.Duration // 0: GradTimeout
		adaptive  bool
		note      string
		seq       int
		d         counters
		tokens    int // retry tokens spent
		samples   int // RTT samples taken
	}
	hello := func(note string, seq int, d counters) edge {
		return edge{to: phaseHello, op: opHello, note: note, seq: seq, d: d}
	}
	redial := edge{to: phaseBackoff, op: opDial, join: true, d: counters{reconnects: 1}, tokens: 1}
	refused := edge{to: phaseBackoff, op: opDial, hint: tHint, join: true, d: counters{refused: 1}, tokens: 1}
	done := edge{to: phaseFinished, op: opReturn}
	apply := edge{to: phaseAwait, op: opApply}
	produce := edge{to: phaseAwait, op: opProduce, d: counters{steps: 1}, samples: 1}
	rejected := edge{to: phaseAwait, op: opResend, hint: tBounce, rej: true, d: counters{rejected: 1}}
	expired := edge{to: phaseAwait, op: opResend, hint: tBounce, rej: true, d: counters{resends: 1}}
	adaptive := edge{to: phaseAwait, op: opResend, d: counters{resends: 1}, tokens: 1}
	legal := map[[2]string]edge{
		{"backoff", "dialed"}:      hello(core.JoinNote, 0, counters{joins: 1}),
		{"backoff", "dial-failed"}: redial,
		{"backoff", "abort"}:       done,

		{"backoff-resume", "dialed"}:      hello(core.ResumeNote, tToken, counters{}),
		{"backoff-resume", "dial-failed"}: redial,
		{"backoff-resume", "abort"}:       done,

		{"hello", "welcome"}:          {to: phaseAwait, op: opProduce},
		{"hello", "refused-hinted"}:   refused,
		{"hello", "refused-terminal"}: done,
		{"hello", "abort"}:            done,
		{"hello", "hard-timeout"}:     redial,
		{"hello", "conn-lost"}:        redial,

		{"await", "gradient"}:         apply,
		{"await", "applied"}:          produce,
		{"await", "rejected"}:         rejected,
		{"await", "expired"}:          expired,
		{"await", "adaptive-timeout"}: adaptive,
		{"await", "refused-hinted"}:   done,
		{"await", "refused-terminal"}: done,
		{"await", "abort"}:            done,
		{"await", "hard-timeout"}:     done,
		{"await", "conn-lost"}:        redial,

		// A warm estimator waits adaptively; each fire doubles the
		// window, and a fourth clean sample narrows it to 2·SRTT.
		{"await-warm", "gradient"}:         apply,
		{"await-warm", "applied"}:          {to: phaseAwait, op: opProduce, wait: srttFactor * tRTT, adaptive: true, d: counters{steps: 1}, samples: 1},
		{"await-warm", "rejected"}:         {to: phaseAwait, op: opResend, hint: tBounce, rej: true, wait: srttFactor * tRTT, adaptive: true, d: counters{rejected: 1}},
		{"await-warm", "expired"}:          {to: phaseAwait, op: opResend, hint: tBounce, rej: true, wait: srttFactor * tRTT, adaptive: true, d: counters{resends: 1}},
		{"await-warm", "adaptive-timeout"}: {to: phaseAwait, op: opResend, wait: 2 * srttFactor * tRTT, adaptive: true, d: counters{resends: 1}, tokens: 1},
		{"await-warm", "refused-hinted"}:   done,
		{"await-warm", "refused-terminal"}: done,
		{"await-warm", "abort"}:            done,
		{"await-warm", "hard-timeout"}:     done,
		{"await-warm", "conn-lost"}:        redial,

		// Karn's rule: a resent batch's round trip is no sample.
		{"await-resent", "gradient"}:         apply,
		{"await-resent", "applied"}:          {to: phaseAwait, op: opProduce, d: counters{steps: 1}},
		{"await-resent", "rejected"}:         rejected,
		{"await-resent", "expired"}:          expired,
		{"await-resent", "adaptive-timeout"}: adaptive,
		{"await-resent", "refused-hinted"}:   done,
		{"await-resent", "refused-terminal"}: done,
		{"await-resent", "abort"}:            done,
		{"await-resent", "hard-timeout"}:     done,
		{"await-resent", "conn-lost"}:        redial,

		{"leaving", "conn-lost"}: redial,
		{"leaving", "abort"}:     done,
	}
	for _, from := range froms {
		for _, e := range events {
			name := from.name + "/" + e.name
			s, twin := bareClient(), bareClient()
			feed(s, from.reach...)
			feed(twin, from.reach...)
			before, tokens, samples := countersOf(s.res), tokensLeft(s, tAt), s.rtt.Samples()
			ev := e.ev
			ev.at = tAt
			act := s.on(ev)
			w, ok := legal[[2]string{from.name, e.name}]
			if !ok {
				// Illegal: nothing changes, and the driver keeps waiting —
				// or, once finished, returns the run's error again.
				if !reflect.DeepEqual(s, twin) {
					t.Errorf("%s: illegal edge changed the state", name)
				}
				want := twin.await(opAwait, 0)
				if s.phase == phaseFinished {
					want = clientAction{op: opReturn, err: s.err}
				}
				if !reflect.DeepEqual(act, want) {
					t.Errorf("%s: illegal edge returned %+v, want %+v", name, act, want)
				}
				continue
			}
			sleep := w.hint
			if w.join {
				sleep += twin.joinJitter.Next()
			}
			if w.rej {
				sleep += twin.rejJitter.Next()
			}
			if w.wait == 0 && w.op != opDial && w.op != opReturn && w.op != opDone && w.op != opApply {
				w.wait = tGrad
			}
			if s.phase != w.to {
				t.Errorf("%s: phase %d, want %d", name, s.phase, w.to)
			}
			if act.op != w.op || act.sleep != sleep || act.wait != w.wait ||
				act.adaptive != w.adaptive || act.note != w.note || act.seq != w.seq {
				t.Errorf("%s: action %+v, want op %d sleep %v wait %v adaptive %v note %q seq %d",
					name, act, w.op, sleep, w.wait, w.adaptive, w.note, w.seq)
			}
			if w.op == opReturn && (act.err == nil || act.err != s.err) {
				t.Errorf("%s: returned error %v, recorded %v", name, act.err, s.err)
			}
			if d := countersOf(s.res).minus(before); d != w.d {
				t.Errorf("%s: counters moved by %+v, want %+v", name, d, w.d)
			}
			if spent := tokens - tokensLeft(s, tAt); spent != w.tokens {
				t.Errorf("%s: spent %d retry tokens, want %d", name, spent, w.tokens)
			}
			if got := s.rtt.Samples() - samples; got != w.samples {
				t.Errorf("%s: took %d RTT samples, want %d", name, got, w.samples)
			}
		}
	}
}

// clientTraces: a refused client's pauses are the server's hint plus the
// Backoff(seed) draws, exactly, while the retry budget's burst lasts;
// the ninth refusal inside one second also waits for a token to refill
// (≥ 250 ms at 4 tokens/s), and the eighth does not. A welcome records
// the session token, which every later redial presents to resume; a
// lost carrier is redialled at most MaxReconnects times.
func clientTraces(t *testing.T) {
	s := bareClient()
	draws := overload.NewBackoff(tFloor, tSeed)
	feed(s, clientEvent{kind: evDialed})
	for k := 1; k <= retryBurst+1; k++ {
		act := s.on(tRefusal)
		want := tHint + draws.Next()
		refill := act.sleep - want
		switch {
		case k <= retryBurst && refill != 0:
			t.Fatalf("refusal %d slept %v, want hint + seeded draw = %v exactly", k, act.sleep, want)
		case k > retryBurst && refill < time.Second/retryRefillPerSec:
			t.Fatalf("refusal %d waited %v for the refill, want at least %v", k, refill, time.Second/retryRefillPerSec)
		}
		if s.on(clientEvent{kind: evDialed}).note != core.JoinNote {
			t.Fatalf("rejoin %d is not a join", k)
		}
	}
	if s.res.Refused != retryBurst+1 || len(s.res.JoinAttempts) != retryBurst+2 {
		t.Fatalf("%d refusals over %d join attempts, want %d over %d",
			s.res.Refused, len(s.res.JoinAttempts), retryBurst+1, retryBurst+2)
	}

	s = bareClient()
	feed(s, clientEvent{kind: evDialed}, tWelcome)
	if s.token != tToken {
		t.Fatalf("token %d after the welcome, want %d", s.token, tToken)
	}
	var act clientAction
	for k := 1; k <= tMaxRec; k++ {
		if act = s.on(tLost); act.op != opDial {
			t.Fatalf("loss %d: %+v, want a redial", k, act)
		}
		if act = s.on(clientEvent{kind: evDialed}); act.note != core.ResumeNote || act.seq != tToken {
			t.Fatalf("redial %d sent %q seq %d, want a resume with token %d", k, act.note, act.seq, tToken)
		}
	}
	if act = s.on(tLost); act.op != opReturn || s.res.Reconnects != tMaxRec || !errors.Is(act.err, tLost.err) {
		t.Fatalf("loss past MaxReconnects: %+v after %d reconnects, want the run to give up after %d",
			act, s.res.Reconnects, tMaxRec)
	}
}
