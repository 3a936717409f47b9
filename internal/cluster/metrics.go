package cluster

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// Snapshot is a point-in-time view of a live Server, safe to take from
// any goroutine while training runs.
type Snapshot struct {
	// Uptime is the wall time since Start.
	Uptime time.Duration
	// ServerSteps is the number of batches processed so far.
	ServerSteps int
	// StepsPerSec is the lifetime throughput (ServerSteps / Uptime),
	// zero until at least a millisecond of uptime has accrued.
	StepsPerSec float64
	// StepsPerSecWindow is the throughput over the trailing ~10s — the
	// number a dashboard should watch, since the lifetime average hides
	// stalls on long runs. Zero until enough step history exists.
	StepsPerSecWindow float64
	// QueueDepth is the current scheduling-queue occupancy.
	QueueDepth int
	// MaxQueueDepth is the occupancy high-water mark over the run.
	MaxQueueDepth int
	// Refused counts join handshakes bounced by admission control.
	Refused int
	// Shed counts queued activations expired past WorkDeadline and shed
	// un-served.
	Shed int
	// CorruptFrames counts inbound frames whose CRC32C trailer did not
	// match the payload — corruption that was detected and dropped (the
	// client's resend recovers the message) instead of trained on.
	CorruptFrames int
	// Quarantined counts client ids blocklisted by the activation
	// sanitizer: their payloads carried NaN/Inf or repeatedly fell
	// outside the fleet's norm envelope.
	Quarantined int
	// Checkpoints counts checkpoints written by the worker so far.
	Checkpoints int
	// CheckpointErr is the most recent checkpoint failure ("" while
	// healthy; cleared by the next successful write), including a write
	// skipped because the weights went non-finite.
	CheckpointErr string
	// LastLoss is the most recent window-averaged training loss.
	LastLoss float64
	// Clients holds per-session service state, sorted by id.
	Clients []ClientStatus
}

// ClientStatus is one session's slice of a Snapshot.
type ClientStatus struct {
	// ID is the end-system id from the join handshake.
	ID int
	// Served counts this client's batches processed by the server.
	Served int
	// LastStaleness is the queue wait of this client's most recently
	// served batch — the live analogue of the paper's staleness concern.
	LastStaleness time.Duration
	// Done reports the client announced completion.
	Done bool
	// Parked reports the session lost its connection and is waiting,
	// within the resume grace window, for the client to reconnect.
	Parked bool
	// Resumes counts successful reconnect-and-resume handshakes.
	Resumes int
	// Err is the terminal session error, if any ("" while healthy).
	Err string
}

// String renders a one-line operational summary.
func (s Snapshot) String() string {
	parts := make([]string, 0, len(s.Clients))
	for _, c := range s.Clients {
		state := ""
		if c.Done {
			state = "✓"
		}
		if c.Parked {
			state = "~"
		}
		if c.Err != "" {
			state = "!"
		}
		parts = append(parts, fmt.Sprintf("c%d:%d%s", c.ID, c.Served, state))
	}
	ckpt := ""
	if s.Checkpoints > 0 {
		ckpt = fmt.Sprintf(" ckpt=%d", s.Checkpoints)
	}
	integrity := ""
	if s.CorruptFrames > 0 || s.Quarantined > 0 {
		integrity = fmt.Sprintf(" corrupt=%d quar=%d", s.CorruptFrames, s.Quarantined)
	}
	return fmt.Sprintf("steps=%d (%.1f/s life, %.1f/s now) depth=%d/%d%s%s loss=%.4f per-client[%s]",
		s.ServerSteps, s.StepsPerSec, s.StepsPerSecWindow, s.QueueDepth, s.MaxQueueDepth, ckpt, integrity, s.LastLoss,
		strings.Join(parts, " "))
}

// snapshotClients assembles the per-client slice from the session map.
// Caller must hold s.mu.
func (s *Server) snapshotClients() []ClientStatus {
	out := make([]ClientStatus, 0, len(s.sessions))
	for id, sess := range s.sessions {
		cs := ClientStatus{
			ID:            id,
			Served:        sess.served,
			LastStaleness: sess.lastStaleness,
			Done:          sess.state == stateDone || sess.state == stateDoneEnded,
			Parked:        sess.state == stateParked,
			Resumes:       sess.resumes,
		}
		if sess.err != nil {
			cs.Err = sess.err.Error()
		}
		out = append(out, cs)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}
