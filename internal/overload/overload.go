// Package overload holds the control-theory primitives behind the
// client's retry discipline: decorrelated-jitter backoff, a token-bucket
// retry budget, and a TCP-RTO-style RTT estimator.
//
// Every type is deterministic given its inputs — randomness comes from a
// caller-supplied seed (mathx.RNG) and time is an injected monotonic
// time.Duration, never the wall clock — so the retry storms these govern
// are unit-testable without sleeps. cluster.RunClient's state machine
// wires them into the live runtime: Backoff + Budget for its reconnect
// and refusal-retry policy, RTTEstimator for its adaptive gradient wait
// (DESIGN.md §3.7).
package overload

import (
	"time"

	"github.com/stsl/stsl/internal/mathx"
)

// Backoff produces retry delays with decorrelated jitter: each delay is
// drawn uniformly from [base, 3×previous], capped at 100×base. Unlike plain
// exponential backoff — where every client that failed together retries
// together — the draws desynchronise a cohort of refused clients within a
// couple of rounds, which is exactly the property the join-storm chaos
// test asserts on arrival timestamps.
//
// Not safe for concurrent use; each retrying actor owns one Backoff.
type Backoff struct {
	base, prev time.Duration
	rng        *mathx.RNG
}

// NewBackoff constructs a decorrelated-jitter source whose delays start
// at base and grow to at most 100×base.
func NewBackoff(base time.Duration, seed uint64) *Backoff {
	return &Backoff{base: base, prev: base, rng: mathx.NewRNG(seed)}
}

// Next draws the next delay: uniform in [base, 3×previous], capped at
// 100×base. The sequence is deterministic for a given seed.
func (b *Backoff) Next() time.Duration {
	hi := min(3*b.prev, 100*b.base)
	d := b.base + time.Duration(b.rng.Float64()*float64(hi-b.base))
	b.prev = d
	return d
}

// Reset returns the growth to the floor — call after a success so the
// next failure starts cheap again.
func (b *Backoff) Reset() { b.prev = b.base }

// Budget is a token-bucket retry budget (gRPC/Finagle style): retries
// withdraw a token, tokens refill at a steady rate up to a burst cap. A
// client inside its budget retries immediately (after jitter); one that
// has spent its burst is throttled to the refill rate, which is what
// stops a retry storm from amplifying an overload.
//
// Time is injected, so exhaustion and refill are unit-testable; not safe
// for concurrent use.
type Budget struct {
	capacity float64
	perSec   float64
	tokens   float64
	last     time.Duration
}

// NewBudget constructs a full budget of capacity tokens that refills at
// perSec (> 0) tokens a second.
func NewBudget(capacity, perSec float64) *Budget {
	return &Budget{capacity: capacity, perSec: perSec, tokens: capacity}
}

// refill credits tokens accrued since the last observation. Clock
// regressions (never expected; defensive) credit nothing.
func (b *Budget) refill(now time.Duration) {
	if dt := now - b.last; dt > 0 {
		b.tokens = min(b.capacity, b.tokens+dt.Seconds()*b.perSec)
		b.last = now
	}
}

// Take withdraws one token if available, reporting whether the retry is
// inside the budget.
func (b *Budget) Take(now time.Duration) bool {
	b.refill(now)
	if b.tokens < 1 {
		return false
	}
	b.tokens--
	return true
}

// NextAt reports when a token will next be available: now if one already
// is, the refill instant otherwise.
func (b *Budget) NextAt(now time.Duration) time.Duration {
	b.refill(now)
	if b.tokens >= 1 {
		return now
	}
	return now + time.Duration((1-b.tokens)/b.perSec*float64(time.Second))
}
