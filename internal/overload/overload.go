// Package overload holds the control-theory primitives behind the
// client's retry discipline: decorrelated-jitter backoff, token-bucket
// retry budgets, a circuit breaker, and a TCP-RTO-style RTT estimator.
//
// Every type is deterministic given its inputs — randomness comes from a
// caller-supplied seed (mathx.RNG) and time is an injected monotonic
// time.Duration, never the wall clock — so the retry storms and breaker
// trips these govern are unit-testable without sleeps. cluster.RunClient
// wires them into the live runtime: Backoff + Budget + Breaker for its
// reconnect and refusal-retry policy, RTTEstimator for its adaptive
// gradient wait (DESIGN.md §3.7).
package overload

import (
	"time"

	"github.com/stsl/stsl/internal/mathx"
)

// Backoff produces retry delays with decorrelated jitter: each delay is
// drawn uniformly from [base, 3×previous], capped at max. Unlike plain
// exponential backoff — where every client that failed together retries
// together — the draws desynchronise a cohort of refused clients within a
// couple of rounds, which is exactly the property the join-storm chaos
// test asserts on arrival timestamps.
//
// Not safe for concurrent use; each retrying actor owns one Backoff.
type Backoff struct {
	base, max time.Duration
	prev      time.Duration
	rng       *mathx.RNG
}

// NewBackoff constructs a decorrelated-jitter source. base is the floor
// of every delay (and the first draw's upper bound starts from it), max
// caps growth. Non-positive base or max panic-free defaults: base
// defaults to 5ms, max to 100×base.
func NewBackoff(base, max time.Duration, seed uint64) *Backoff {
	if base <= 0 {
		base = 5 * time.Millisecond
	}
	if max <= 0 {
		max = 100 * base
	}
	if max < base {
		max = base
	}
	return &Backoff{base: base, max: max, prev: base, rng: mathx.NewRNG(seed)}
}

// Next draws the next delay: uniform in [base, 3×previous], capped at
// max. The sequence is deterministic for a given seed.
func (b *Backoff) Next() time.Duration {
	hi := 3 * b.prev
	if hi > b.max {
		hi = b.max
	}
	if hi < b.base {
		hi = b.base
	}
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
// stops a retry storm from amplifying an overload. The zero refill rate
// makes it a pure burst budget that never refills.
//
// Time is injected, so exhaustion and refill are unit-testable; not safe
// for concurrent use.
type Budget struct {
	capacity float64
	perSec   float64
	tokens   float64
	last     time.Duration
}

// NewBudget constructs a budget that starts full. capacity <= 0 defaults
// to 8 tokens; perSec < 0 is treated as 0 (no refill).
func NewBudget(capacity, perSec float64) *Budget {
	if capacity <= 0 {
		capacity = 8
	}
	if perSec < 0 {
		perSec = 0
	}
	return &Budget{capacity: capacity, perSec: perSec, tokens: capacity}
}

// refill credits tokens accrued since the last observation. Clock
// regressions (never expected; defensive) credit nothing.
func (b *Budget) refill(now time.Duration) {
	if dt := now - b.last; dt > 0 {
		b.tokens += dt.Seconds() * b.perSec
		if b.tokens > b.capacity {
			b.tokens = b.capacity
		}
	}
	if now > b.last {
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

// Tokens reports the balance as of now (diagnostics and tests).
func (b *Budget) Tokens(now time.Duration) float64 {
	b.refill(now)
	return b.tokens
}

// NextAt reports when a token will next be available: now if one already
// is, the refill instant otherwise. ok is false when the budget can never
// recover (empty with no refill) — the caller should give up rather than
// wait.
func (b *Budget) NextAt(now time.Duration) (at time.Duration, ok bool) {
	b.refill(now)
	if b.tokens >= 1 {
		return now, true
	}
	if b.perSec <= 0 {
		return 0, false
	}
	need := 1 - b.tokens
	return now + time.Duration(need/b.perSec*float64(time.Second)), true
}
