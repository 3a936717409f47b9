package cluster

import (
	"sync/atomic"
	"time"

	"github.com/stsl/stsl/internal/transport"
)

// session is the server-side state of one attached end-system. A session
// outlives any single connection: with resume enabled it moves between
// joined and parked, and its lifecycle (DESIGN.md §3.3) changes only
// through Server.transition.
type session struct {
	id int
	// token is the resume credential issued at join and echoed in every
	// welcome; a reconnecting client must present it to reclaim the
	// session. Immutable after creation.
	token int

	// lastActive is the server-clock time (nanoseconds) of the last
	// message received — the straggler janitor's evidence of life.
	lastActive atomic.Int64
	// closed mirrors "has a terminal error or has ended" for admit's
	// backpressure loop, which polls it without the lock so a goroutine
	// parked on a full queue abandons instead of pushing work for a dead
	// client. Written only by transition.
	closed atomic.Bool
	// pending counts activations admitted to the queue but not yet
	// replied to. A session with pending work is waiting on the server
	// (a gated policy, a deep queue), so the janitor must not mistake
	// that silence for straggling.
	pending atomic.Int64

	// The remaining fields are guarded by Server.mu.

	// state and err are written only by transition. err is the first
	// terminal error; an ended session with one was evicted.
	state sessionState
	err   error
	// conn is the session's current carrier; resume swaps it in place,
	// so every send must read it under the lock at send time.
	conn          transport.Conn
	served        int
	lastStaleness time.Duration
	parkedAt      time.Duration
	resumes       int
	// maxAdmitted is the highest activation Seq admitted to the queue
	// (-1 before the first). Reconnecting clients resend their in-flight
	// batch, and duplicating networks redeliver; admission claims the
	// seq under the lock so each batch is trained exactly once.
	maxAdmitted int
	// lastReply caches the most recent gradient reply. A resend of an
	// already-served seq is answered from here rather than reprocessed —
	// the other half of exactly-once.
	lastReply *transport.Message
}

// sessionState is a session's place in the lifecycle of DESIGN.md §3.3.
// Joined and parked sessions hold an admission slot; an ended session
// with an error was evicted.
type sessionState uint8

const (
	stateNew       sessionState = iota // registered, join not yet applied
	stateJoined                        // a live carrier
	stateParked                        // carrier lost within ResumeGrace; replies are cached
	stateDone                          // announced completion; the carrier is still open
	stateEnded                         // terminal: left, displaced, shut down or evicted
	stateDoneEnded                     // terminal after done: the carrier closed
)

// slots is the number of admission slots (MaxSessions) a session in
// this state holds: one while it can still contribute work.
func (st sessionState) slots() int {
	if st == stateJoined || st == stateParked {
		return 1
	}
	return 0
}

func (st sessionState) terminal() bool { return st == stateEnded || st == stateDoneEnded }

// sessionEvent is one input to the session state machine. evFail (the
// server ends the session for cause) and evQuarantine (evFail, ruled
// hostile) record an error on a session that still has a receive loop,
// which ends it; evFail ends a parked session, which has none.
type sessionEvent uint8

const (
	evJoin       sessionEvent = iota // new → joined
	evResume                         // joined (half-open) or parked → joined, unless an error is recorded
	evDone                           // joined → done
	evPark                           // joined → parked, unless an error is recorded
	evFail                           // joined, done: record the error; parked → ended
	evQuarantine                     // joined, done: record the error
	evEnd                            // joined, done, parked → ended
)

// transition applies one event to sess and reports whether the edge is
// legal; an illegal edge changes nothing. It is the only writer of
// sess.state, sess.err, sess.closed and s.live, and it records each
// edge's one lifecycle counter and trace event, so every join is
// balanced by exactly one leave or evict. Caller must hold s.mu and do
// the edge's I/O (closing a carrier, sending, q.Deactivate) after
// unlocking.
func (s *Server) transition(sess *session, ev sessionEvent, err error) bool {
	from := sess.state
	// attached sessions still have a receive loop to end them.
	attached := from == stateJoined || from == stateDone
	to, kind := from, ""
	switch {
	case ev == evJoin && from == stateNew:
		to, kind = stateJoined, "session.join"
		s.joined++
	case ev == evResume && (from == stateJoined || from == stateParked) && sess.err == nil:
		to, kind = stateJoined, "session.resume"
		sess.resumes++
		sess.lastActive.Store(int64(s.now()))
	case ev == evDone && from == stateJoined:
		to = stateDone
	case ev == evPark && from == stateJoined && sess.err == nil:
		to, kind = stateParked, "session.park"
		sess.parkedAt = s.now()
	case ev == evFail && attached:
	case ev == evQuarantine && attached:
		kind = "session.quarantine"
	case ev == evEnd && (attached || from == stateParked), ev == evFail && from == stateParked:
		to, kind = stateEnded, "session.leave"
		if from == stateDone {
			to = stateDoneEnded
		}
	default:
		return false
	}
	if sess.err == nil {
		sess.err = err
	}
	if kind == "session.leave" && sess.err != nil {
		kind = "session.evict"
	}
	sess.state = to
	s.live += to.slots() - from.slots()
	if sess.err != nil || to.terminal() {
		sess.closed.Store(true)
	}
	if kind != "" {
		note := ""
		if kind == "session.evict" || kind == "session.quarantine" {
			note = sess.err.Error()
		}
		s.lifecycle(kind, sess.id, note)
	}
	s.cond.Broadcast()
	return true
}
