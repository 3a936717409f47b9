package queue

import (
	"sync"
	"time"
)

// Safe wraps any Policy for concurrent use: many producer goroutines may
// Push while one (or more) consumers Pop. It is the bridge between the
// paper's single-threaded scheduling disciplines and the live cluster
// runtime, where end-systems are real concurrent actors and arrival skew
// is wall-clock real rather than simulated.
//
// Beyond mutual exclusion, Safe exposes two edge-triggered notification
// channels so a consumer can block until the queue state may have
// changed instead of spinning: Pushed() fires after every Push (and
// after Deactivate, which can open a gated policy), and Popped() fires
// after every successful Pop (which is what a parked producer waiting
// for queue headroom cares about).
type Safe struct {
	mu    sync.Mutex
	inner Policy
	ins   *Instruments

	pushed chan struct{}
	popped chan struct{}
}

// NewSafe wraps a policy. The policy must not be used directly once
// wrapped.
func NewSafe(p Policy) *Safe {
	return &Safe{
		inner:  p,
		pushed: make(chan struct{}, 1),
		popped: make(chan struct{}, 1),
	}
}

// SetInstruments attaches telemetry (nil detaches). The counters and
// the wait histogram are updated inside the queue's critical sections,
// so depth and wait observations are exactly consistent with the
// scheduling decisions they describe.
func (s *Safe) SetInstruments(ins *Instruments) {
	s.mu.Lock()
	s.ins = ins
	s.mu.Unlock()
}

// observeDepthLocked refreshes the depth gauge. Caller must hold s.mu.
func (s *Safe) observeDepthLocked() {
	if s.ins != nil {
		s.ins.Depth.Set(float64(s.inner.Len()))
	}
}

// signal makes an edge-triggered, non-blocking notification.
func signal(ch chan struct{}) {
	select {
	case ch <- struct{}{}:
	default:
	}
}

// Name implements Policy.
func (s *Safe) Name() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.inner.Name()
}

// Push implements Policy.
func (s *Safe) Push(it Item) {
	s.mu.Lock()
	s.inner.Push(it)
	if s.ins != nil {
		s.ins.Enqueued.Inc()
		s.observeDepthLocked()
	}
	s.mu.Unlock()
	signal(s.pushed)
}

// TryPushParking pushes only if the queue currently holds fewer than cap
// items, reporting whether the push happened. cap <= 0 means unbounded.
// The check and push are atomic, so concurrent producers cannot
// overshoot the cap. The caller waits for headroom (Popped) and retries
// rather than dropping the item, so a refusal is counted as Parked —
// under the queue's lock, like every other counter — but only when
// firstAttempt is true: one parked admission counts once however many
// wait-retry rounds it takes to land.
func (s *Safe) TryPushParking(it Item, cap int, firstAttempt bool) bool {
	s.mu.Lock()
	if cap > 0 && s.inner.Len() >= cap {
		if firstAttempt && s.ins != nil {
			s.ins.Parked.Inc()
		}
		s.mu.Unlock()
		return false
	}
	s.inner.Push(it)
	if s.ins != nil {
		s.ins.Enqueued.Inc()
		s.observeDepthLocked()
	}
	s.mu.Unlock()
	signal(s.pushed)
	return true
}

// Pop implements Policy.
func (s *Safe) Pop(now time.Duration) (Item, bool) {
	s.mu.Lock()
	it, ok := s.inner.Pop(now)
	if ok && s.ins != nil {
		s.ins.Dequeued.Inc()
		s.ins.Wait.Observe(it.Staleness(now).Seconds())
		s.observeDepthLocked()
	}
	remaining := s.inner.Len()
	s.mu.Unlock()
	if ok {
		signal(s.popped)
		if remaining > 0 {
			// Cascade wakeup: Pushed() is edge-triggered with capacity 1,
			// so one push burst can wake only one of N blocked consumers.
			// Re-arming the push signal while work remains hands the next
			// item's wakeup to the next consumer — without it a worker
			// pool would strand queued items behind a single edge.
			signal(s.pushed)
		}
	}
	return it, ok
}

// PopBatch implements Policy: the inner policy's batch is drawn under
// one critical section, so concurrent producers can never interleave
// into the middle of a batch (a sync-rounds round stays atomic). One
// headroom signal covers the whole batch — parked producers poll.
func (s *Safe) PopBatch(now time.Duration, max int) []Item {
	s.mu.Lock()
	items := s.inner.PopBatch(now, max)
	if len(items) > 0 && s.ins != nil {
		s.ins.Dequeued.Add(int64(len(items)))
		for _, it := range items {
			s.ins.Wait.Observe(it.Staleness(now).Seconds())
		}
		s.observeDepthLocked()
	}
	remaining := s.inner.Len()
	s.mu.Unlock()
	if len(items) > 0 {
		signal(s.popped)
		if remaining > 0 {
			// Same cascade as Pop: keep the push edge armed while items
			// remain so every blocked consumer in a pool gets its turn.
			signal(s.pushed)
		}
	}
	return items
}

// PopBatchDeadline is PopBatch with deadline shedding: items whose
// enqueue Deadline has passed are filtered out of the draw under the same
// critical section that popped them, counted as Expired, and returned
// separately so the caller can notify their owners (the cluster worker
// sends the client a resend notice). When an entire draw turns out to be
// expired backlog the policy is drawn again, so a burst of abandoned work
// cannot return an empty fresh batch while serviceable items wait behind
// it.
//
// Expired items count toward Instruments.Expired only — never Dequeued or
// Wait — preserving the occupancy invariant enqueued − dequeued − expired
// = depth.
func (s *Safe) PopBatchDeadline(now time.Duration, max int) (fresh, expired []Item) {
	s.mu.Lock()
	for {
		items := s.inner.PopBatch(now, max)
		if len(items) == 0 {
			break
		}
		for _, it := range items {
			if it.Expired(now) {
				expired = append(expired, it)
			} else {
				fresh = append(fresh, it)
			}
		}
		if len(fresh) > 0 || s.inner.Len() == 0 {
			break
		}
	}
	if s.ins != nil {
		if len(expired) > 0 {
			s.ins.Expired.Add(int64(len(expired)))
		}
		if len(fresh) > 0 {
			s.ins.Dequeued.Add(int64(len(fresh)))
			for _, it := range fresh {
				s.ins.Wait.Observe(it.Staleness(now).Seconds())
			}
		}
		if len(fresh)+len(expired) > 0 {
			s.observeDepthLocked()
		}
	}
	remaining := s.inner.Len()
	s.mu.Unlock()
	if len(fresh)+len(expired) > 0 {
		signal(s.popped)
		if remaining > 0 {
			// Same cascade as Pop: keep the push edge armed while items
			// remain so every blocked consumer in a pool gets its turn.
			signal(s.pushed)
		}
	}
	return fresh, expired
}

// Requeue returns already-popped items to the policy in one critical
// section, preserving their original arrival times so staleness-ordered
// disciplines restore each item's true priority (FIFO appends at the
// tail; the perturbation is bounded by the batch size). It is the
// orphan-recovery path: a consumer that popped work it can no longer
// process — the worker caught mid-batch by shutdown — puts the items
// back rather than silently dropping admitted contributions.
func (s *Safe) Requeue(items ...Item) {
	if len(items) == 0 {
		return
	}
	s.mu.Lock()
	for _, it := range items {
		s.inner.Push(it)
	}
	if s.ins != nil {
		s.ins.Requeued.Add(int64(len(items)))
		s.observeDepthLocked()
	}
	s.mu.Unlock()
	signal(s.pushed)
}

// Len implements Policy.
func (s *Safe) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.inner.Len()
}

// Deactivate forwards to a gated inner policy (e.g. SyncRounds) and
// wakes consumers, since removing a client can open the gate. It is a
// no-op for ungated policies.
func (s *Safe) Deactivate(clientID int) {
	s.mu.Lock()
	if g, ok := s.inner.(interface{ Deactivate(int) }); ok {
		g.Deactivate(clientID)
	}
	s.mu.Unlock()
	signal(s.pushed)
}

// Gated reports whether the wrapped policy is gated (can refuse to pop
// while non-empty, like SyncRounds). Consumers use this to size
// backpressure: capping admission below the client count would starve a
// gate that needs one item from every client.
func (s *Safe) Gated() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.inner.(interface{ Deactivate(int) })
	return ok
}

// Pushed returns the channel signalled after pushes (and deactivations).
// It is edge-triggered with capacity 1: a receive means "state may have
// changed since you last looked", not "exactly one item arrived".
func (s *Safe) Pushed() <-chan struct{} { return s.pushed }

// Popped returns the channel signalled after successful pops — the
// headroom signal a producer parked on a full queue waits for.
func (s *Safe) Popped() <-chan struct{} { return s.popped }

var _ Policy = (*Safe)(nil)
