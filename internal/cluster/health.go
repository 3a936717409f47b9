package cluster

import "time"

// HealthState is the server's coarse operational state, served by the
// admin listener's /healthz endpoint. The state machine (DESIGN.md
// §3.7): ready ⇄ live (session cap), any → stopped.
type HealthState string

const (
	// HealthReady: serving and accepting new sessions.
	HealthReady HealthState = "ready"
	// HealthLive: up and serving admitted sessions, but at the session
	// cap — new joins are refused with a RetryAfter hint.
	HealthLive HealthState = "live"
	// HealthStopped: the server has not started, or has shut down.
	HealthStopped HealthState = "stopped"
)

// Health is a point-in-time operational summary, cheap enough to poll.
type Health struct {
	State HealthState `json:"state"`
	// Sessions is the number of live admission slots in use;
	// MaxSessions the cap (0 = unlimited).
	Sessions    int `json:"sessions"`
	MaxSessions int `json:"max_sessions,omitempty"`
	// QueueDepth is the scheduling queue's current occupancy.
	QueueDepth int `json:"queue_depth"`
	// P95Service is the p95 of service latency (enqueue → gradient).
	P95Service time.Duration `json:"p95_service_ns"`
	// Refused counts admission-control join refusals; Shed counts
	// deadline-expired activations shed un-served.
	Refused int `json:"refused"`
	Shed    int `json:"shed"`
	// RetryAfter is the hint a refused client would receive right now;
	// zero while the server is accepting.
	RetryAfter time.Duration `json:"retry_after_ns,omitempty"`
}

// OK reports whether the state maps to HTTP 200 (ready, live) rather
// than 503 (stopped).
func (h Health) OK() bool { return h.State == HealthReady || h.State == HealthLive }

// Health assembles the live health view; safe from any goroutine at any
// time, including while a join storm is hammering the accept path — it
// takes s.mu once and touches no model state.
func (s *Server) Health() Health {
	p95 := time.Duration(s.svcLat.Quantile(0.95) * float64(time.Second))
	s.mu.Lock()
	h := Health{
		Sessions:    s.live,
		MaxSessions: s.cfg.MaxSessions,
		P95Service:  p95,
		Refused:     s.refused,
		Shed:        s.shed,
	}
	stopped := !s.started || (s.ctx != nil && s.ctx.Err() != nil)
	s.mu.Unlock()
	h.QueueDepth = s.q.Len()
	switch {
	case stopped:
		h.State = HealthStopped
	case h.MaxSessions > 0 && h.Sessions >= h.MaxSessions:
		h.State = HealthLive
	default:
		h.State = HealthReady
	}
	if h.State != HealthReady {
		h.RetryAfter = s.retryAfterHint()
	}
	return h
}

// HealthzFunc adapts Health to the admin listener's /healthz hook
// (obs.AdminConfig.Healthz).
func (s *Server) HealthzFunc() func() (bool, any) {
	return func() (bool, any) {
		h := s.Health()
		return h.OK(), h
	}
}
