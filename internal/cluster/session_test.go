package cluster

import (
	"errors"
	"sync"
	"testing"
	"time"

	"github.com/stsl/stsl/internal/obs"
)

// TestSessionTransitions drives the session state machine directly — a
// bare server and session, no goroutines, carriers or timers — over
// every (state, event) pair. A legal edge must land in its state, move
// the admission-slot count by its delta and emit exactly its one
// lifecycle event; an illegal edge must change nothing at all.
func TestSessionTransitions(t *testing.T) {
	earlier := errors.New("earlier cause")
	cause := errors.New("cause")
	froms := []struct {
		name  string
		state sessionState
		err   error
	}{
		{"new", stateNew, nil},
		{"joined", stateJoined, nil},
		{"joined+err", stateJoined, earlier},
		{"parked", stateParked, nil},
		{"done", stateDone, nil},
		{"ended", stateEnded, nil},
		{"evicted", stateEnded, earlier},
		{"done-ended", stateDoneEnded, nil},
	}
	events := []struct {
		name string
		ev   sessionEvent
		err  error
	}{
		{"join", evJoin, nil},
		{"resume", evResume, nil},
		{"done", evDone, nil},
		{"park", evPark, nil},
		{"fail", evFail, cause},
		{"quarantine", evQuarantine, cause},
		{"end", evEnd, nil},
		{"end+err", evEnd, cause},
	}
	type edge struct {
		to    sessionState
		live  int
		event string // "" = none
	}
	legal := map[[2]string]edge{
		{"new", "join"}: {stateJoined, +1, "join"},

		{"joined", "resume"}:     {stateJoined, 0, "resume"},
		{"joined", "done"}:       {stateDone, -1, ""},
		{"joined", "park"}:       {stateParked, 0, "park"},
		{"joined", "fail"}:       {stateJoined, 0, ""},
		{"joined", "quarantine"}: {stateJoined, 0, "quarantine"},
		{"joined", "end"}:        {stateEnded, -1, "leave"},
		{"joined", "end+err"}:    {stateEnded, -1, "evict"},

		// A recorded error forbids parking and resuming, and turns any
		// end into an evict.
		{"joined+err", "done"}:       {stateDone, -1, ""},
		{"joined+err", "fail"}:       {stateJoined, 0, ""},
		{"joined+err", "quarantine"}: {stateJoined, 0, "quarantine"},
		{"joined+err", "end"}:        {stateEnded, -1, "evict"},
		{"joined+err", "end+err"}:    {stateEnded, -1, "evict"},

		// A parked session has no receive loop: fail ends it here, and
		// an end (displacement, shutdown) is a leave.
		{"parked", "resume"}:  {stateJoined, 0, "resume"},
		{"parked", "fail"}:    {stateEnded, -1, "evict"},
		{"parked", "end"}:     {stateEnded, -1, "leave"},
		{"parked", "end+err"}: {stateEnded, -1, "evict"},

		{"done", "fail"}:       {stateDone, 0, ""},
		{"done", "quarantine"}: {stateDone, 0, "quarantine"},
		{"done", "end"}:        {stateDoneEnded, 0, "leave"},
		{"done", "end+err"}:    {stateDoneEnded, 0, "evict"},
	}
	lifecycle := []string{"join", "resume", "park", "leave", "evict", "quarantine"}

	for _, from := range froms {
		for _, ev := range events {
			want, ok := legal[[2]string{from.name, ev.name}]
			if !ok {
				want = edge{to: from.state}
			}
			reg := obs.NewRegistry()
			s := &Server{
				ins:      newInstruments(reg),
				sessions: map[int]*session{},
				now:      func() time.Duration { return time.Second },
			}
			s.cond = sync.NewCond(&s.mu)
			sess := &session{id: 7, state: from.state, err: from.err}
			closed := from.err != nil || from.state.terminal()
			sess.closed.Store(closed)
			s.live = from.state.slots()

			s.mu.Lock()
			got := s.transition(sess, ev.ev, ev.err)
			s.mu.Unlock()

			pair := from.name + " --" + ev.name + "-->"
			if got != ok {
				t.Errorf("%s legal = %v, want %v", pair, got, ok)
			}
			if sess.state != want.to {
				t.Errorf("%s state %d, want %d", pair, sess.state, want.to)
			}
			if d := s.live - from.state.slots(); d != want.live {
				t.Errorf("%s live delta %+d, want %+d", pair, d, want.live)
			}
			wantErr := from.err
			if ok && wantErr == nil {
				wantErr = ev.err
			}
			if sess.err != wantErr {
				t.Errorf("%s err %v, want %v (the first terminal error sticks)", pair, sess.err, wantErr)
			}
			if ok {
				closed = sess.err != nil || want.to.terminal()
			}
			if sess.closed.Load() != closed {
				t.Errorf("%s closed %v, want %v", pair, sess.closed.Load(), closed)
			}
			for _, kind := range lifecycle {
				c := reg.Counter("stsl_cluster_sessions_total", obs.Labels{"event": kind})
				if kind == "quarantine" {
					c = reg.Counter("stsl_quarantined_total", nil)
				}
				var n int64
				if kind == want.event {
					n = 1
				}
				if c.Value() != n {
					t.Errorf("%s %s events = %d, want %d", pair, kind, c.Value(), n)
				}
			}
			if joins := int64(s.joined); joins != reg.Counter("stsl_cluster_sessions_total", obs.Labels{"event": "join"}).Value() {
				t.Errorf("%s joined = %d, out of step with the join counter", pair, joins)
			}
		}
	}
}
