package overload

import (
	"testing"
	"time"
)

// TestBackoffBounds: every draw stays in [base, max], and the upper bound
// of each draw tracks 3× the previous one (decorrelated jitter), checked
// over a long deterministic sequence.
func TestBackoffBounds(t *testing.T) {
	base, max := 5*time.Millisecond, 200*time.Millisecond
	b := NewBackoff(base, max, 42)
	prev := base
	for i := 0; i < 1000; i++ {
		d := b.Next()
		if d < base || d > max {
			t.Fatalf("draw %d: %v outside [%v, %v]", i, d, base, max)
		}
		hi := 3 * prev
		if hi > max {
			hi = max
		}
		if hi < base {
			hi = base
		}
		if d > hi {
			t.Fatalf("draw %d: %v exceeds decorrelated bound %v (prev %v)", i, d, hi, prev)
		}
		prev = d
	}
}

// TestBackoffDeterministicAndSeedDiverse: the same seed replays the same
// sequence, and different seeds diverge — the property that keeps a
// cohort of refused clients from retrying in lock-step.
func TestBackoffDeterministicAndSeedDiverse(t *testing.T) {
	a1 := NewBackoff(time.Millisecond, time.Second, 7)
	a2 := NewBackoff(time.Millisecond, time.Second, 7)
	for i := 0; i < 50; i++ {
		if d1, d2 := a1.Next(), a2.Next(); d1 != d2 {
			t.Fatalf("same seed diverged at draw %d: %v vs %v", i, d1, d2)
		}
	}
	seen := make(map[time.Duration]bool)
	for seed := uint64(1); seed <= 32; seed++ {
		b := NewBackoff(time.Millisecond, time.Second, seed)
		b.Next()
		b.Next()
		seen[b.Next()] = true
	}
	if len(seen) < 24 {
		t.Fatalf("32 seeds produced only %d distinct third draws — not jittered enough", len(seen))
	}
}

// TestBackoffReset: after Reset the growth restarts from the floor.
func TestBackoffReset(t *testing.T) {
	b := NewBackoff(10*time.Millisecond, time.Second, 3)
	for i := 0; i < 10; i++ {
		b.Next()
	}
	b.Reset()
	if d := b.Next(); d > 3*10*time.Millisecond {
		t.Fatalf("post-reset draw %v exceeds 3×base", d)
	}
}

// TestBudgetExhaustion: a full bucket allows exactly capacity immediate
// withdrawals, then refuses until the refill rate credits a new token at
// the predicted instant.
func TestBudgetExhaustion(t *testing.T) {
	b := NewBudget(4, 2) // 4-token burst, 2 tokens/s
	now := time.Duration(0)
	for i := 0; i < 4; i++ {
		if !b.Take(now) {
			t.Fatalf("withdrawal %d refused with tokens remaining", i)
		}
	}
	if b.Take(now) {
		t.Fatal("withdrawal beyond capacity allowed")
	}
	at, ok := b.NextAt(now)
	if !ok {
		t.Fatal("refilling budget reported unrecoverable")
	}
	if want := 500 * time.Millisecond; at != want {
		t.Fatalf("next token at %v, want %v (2/s refill)", at, want)
	}
	if b.Take(at - time.Millisecond) {
		t.Fatal("withdrawal allowed before refill instant")
	}
	if !b.Take(at + time.Millisecond) {
		t.Fatal("withdrawal refused after refill instant")
	}
}

// TestBudgetNoRefill: perSec=0 is a pure burst budget that can never
// recover once spent.
func TestBudgetNoRefill(t *testing.T) {
	b := NewBudget(2, 0)
	now := time.Duration(0)
	b.Take(now)
	b.Take(now)
	if b.Take(time.Hour) {
		t.Fatal("no-refill budget recovered")
	}
	if _, ok := b.NextAt(time.Hour); ok {
		t.Fatal("no-refill budget reported a recovery instant")
	}
}

// TestBudgetCap: refill never overfills past capacity.
func TestBudgetCap(t *testing.T) {
	b := NewBudget(3, 1000)
	if got := b.Tokens(time.Hour); got != 3 {
		t.Fatalf("tokens %v exceed capacity 3 after long idle", got)
	}
}

// TestBreakerTripHalfOpenClose walks the full state machine: closed →
// (threshold failures) → open → (cooldown) → half-open → success →
// closed, with the attempt gate matching each state.
func TestBreakerTripHalfOpenClose(t *testing.T) {
	br := NewBreaker(BreakerConfig{Threshold: 3, Cooldown: 100 * time.Millisecond, MaxCooldown: time.Second})
	now := time.Duration(0)
	for i := 0; i < 2; i++ {
		if !br.Allow(now) {
			t.Fatalf("closed breaker refused attempt %d", i)
		}
		br.Failure(now, 0)
		if br.State() != BreakerClosed {
			t.Fatalf("breaker tripped after %d failures, threshold 3", i+1)
		}
	}
	br.Failure(now, 0)
	if br.State() != BreakerOpen {
		t.Fatalf("breaker %v after threshold failures, want open", br.State())
	}
	if br.Allow(now + 50*time.Millisecond) {
		t.Fatal("open breaker allowed attempt inside cooldown")
	}
	if !br.Allow(now + 101*time.Millisecond) {
		t.Fatal("breaker refused the half-open probe after cooldown")
	}
	if br.State() != BreakerHalfOpen {
		t.Fatalf("breaker %v after cooldown elapsed, want half-open", br.State())
	}
	br.Success()
	if br.State() != BreakerClosed {
		t.Fatalf("breaker %v after probe success, want closed", br.State())
	}
	if !br.Allow(now) {
		t.Fatal("closed breaker refused after recovery")
	}
}

// TestBreakerHalfOpenFailureEscalates: a failed probe re-opens with a
// doubled cooldown, and repeated trips keep doubling up to the cap.
func TestBreakerHalfOpenFailureEscalates(t *testing.T) {
	br := NewBreaker(BreakerConfig{Threshold: 1, Cooldown: 10 * time.Millisecond, MaxCooldown: 60 * time.Millisecond})
	now := time.Duration(0)
	br.Failure(now, 0) // trip 1: 10ms
	if got := br.OpenUntil() - now; got != 10*time.Millisecond {
		t.Fatalf("first cooldown %v, want 10ms", got)
	}
	now = br.OpenUntil()
	br.Allow(now) // half-open
	br.Failure(now, 0)
	if got := br.OpenUntil() - now; got != 20*time.Millisecond {
		t.Fatalf("second cooldown %v, want 20ms (doubled)", got)
	}
	for i := 0; i < 5; i++ {
		now = br.OpenUntil()
		br.Allow(now)
		br.Failure(now, 0)
	}
	if got := br.OpenUntil() - now; got != 60*time.Millisecond {
		t.Fatalf("cooldown %v after many trips, want 60ms cap", got)
	}
}

// TestBreakerHonoursRetryAfter: a server hint longer than the cooldown
// extends the open period — the breaker never probes before the server
// asked it to come back.
func TestBreakerHonoursRetryAfter(t *testing.T) {
	br := NewBreaker(BreakerConfig{Threshold: 1, Cooldown: 10 * time.Millisecond, MaxCooldown: time.Second})
	now := 5 * time.Millisecond
	br.Failure(now, 300*time.Millisecond)
	if got := br.OpenUntil(); got != now+300*time.Millisecond {
		t.Fatalf("open until %v, want hint-extended %v", got, now+300*time.Millisecond)
	}
}

// TestRTTEstimator: RFC 6298 recurrence on a known sequence, plus the
// pre-sample conservative default and clamping.
func TestRTTEstimator(t *testing.T) {
	e := NewRTTEstimator(time.Millisecond, time.Second)
	if got := e.Timeout(); got != time.Second {
		t.Fatalf("pre-sample timeout %v, want max", got)
	}
	e.Observe(100 * time.Millisecond)
	// First sample: SRTT=100ms, RTTVAR=50ms → RTO=300ms.
	if got := e.Timeout(); got != 300*time.Millisecond {
		t.Fatalf("after first sample timeout %v, want 300ms", got)
	}
	// Steady identical samples shrink variance toward zero.
	for i := 0; i < 100; i++ {
		e.Observe(100 * time.Millisecond)
	}
	if got := e.Timeout(); got > 110*time.Millisecond {
		t.Fatalf("steady-state timeout %v did not converge toward SRTT", got)
	}
	// A spike reinflates it.
	e.Observe(time.Second)
	if got := e.Timeout(); got < 200*time.Millisecond {
		t.Fatalf("timeout %v did not react to a latency spike", got)
	}
}

func TestRTTEstimatorClamps(t *testing.T) {
	e := NewRTTEstimator(50*time.Millisecond, 80*time.Millisecond)
	e.Observe(time.Microsecond)
	if got := e.Timeout(); got != 50*time.Millisecond {
		t.Fatalf("timeout %v, want min clamp 50ms", got)
	}
	e2 := NewRTTEstimator(time.Millisecond, 80*time.Millisecond)
	e2.Observe(10 * time.Second)
	if got := e2.Timeout(); got != 80*time.Millisecond {
		t.Fatalf("timeout %v, want max clamp 80ms", got)
	}
}
