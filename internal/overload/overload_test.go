package overload

import (
	"testing"
	"time"
)

// TestBackoffBounds: every draw stays in [base, 100×base], and the upper
// bound of each draw tracks 3× the previous one (decorrelated jitter),
// checked over a long deterministic sequence.
func TestBackoffBounds(t *testing.T) {
	base, max := 5*time.Millisecond, 500*time.Millisecond
	b := NewBackoff(base, 42)
	prev := base
	for i := 0; i < 1000; i++ {
		d := b.Next()
		if d < base || d > max {
			t.Fatalf("draw %d: %v outside [%v, %v]", i, d, base, max)
		}
		if hi := min(3*prev, max); d > hi {
			t.Fatalf("draw %d: %v exceeds decorrelated bound %v (prev %v)", i, d, hi, prev)
		}
		prev = d
	}
}

// TestBackoffDeterministicAndSeedDiverse: the same seed replays the same
// sequence, and different seeds diverge — the property that keeps a
// cohort of refused clients from retrying in lock-step.
func TestBackoffDeterministicAndSeedDiverse(t *testing.T) {
	a1 := NewBackoff(time.Millisecond, 7)
	a2 := NewBackoff(time.Millisecond, 7)
	for i := 0; i < 50; i++ {
		if d1, d2 := a1.Next(), a2.Next(); d1 != d2 {
			t.Fatalf("same seed diverged at draw %d: %v vs %v", i, d1, d2)
		}
	}
	seen := make(map[time.Duration]bool)
	for seed := uint64(1); seed <= 32; seed++ {
		b := NewBackoff(time.Millisecond, seed)
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
	b := NewBackoff(10*time.Millisecond, 3)
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
	at := b.NextAt(now)
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

// TestBudgetCap: refill never overfills past capacity — after a long
// idle exactly capacity withdrawals succeed at one instant.
func TestBudgetCap(t *testing.T) {
	b := NewBudget(3, 1000)
	b.Take(0)
	for i := 0; i < 3; i++ {
		if !b.Take(time.Hour) {
			t.Fatalf("withdrawal %d refused after a long idle", i)
		}
	}
	if b.Take(time.Hour) {
		t.Fatal("a fourth withdrawal succeeded: refill overfilled capacity 3")
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
