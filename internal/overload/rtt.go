package overload

import "time"

// RTTEstimator tracks a smoothed round-trip (or inter-arrival) time and
// its variance with the TCP retransmission-timeout recurrence (RFC 6298):
//
//	SRTT   ← 7/8·SRTT + 1/8·sample
//	RTTVAR ← 3/4·RTTVAR + 1/4·|SRTT − sample|
//	RTO    =  SRTT + 4·RTTVAR, clamped to [Min, Max]
//
// RunClient feeds it gradient round trips so its wait timeout adapts to
// the server's actual service latency instead of a fixed worst case.
//
// It is not safe for concurrent use: its one user, the end-system's
// clientState, runs on RunClient's actor goroutine.
type RTTEstimator struct {
	srtt    time.Duration
	rttvar  time.Duration
	samples int
	min     time.Duration
	max     time.Duration
}

// NewRTTEstimator constructs an estimator whose Timeout is clamped to
// [min, max]. Non-positive bounds default to 1ms and 30s. Before the
// first sample, Timeout reports max — the conservative choice for a
// deadline.
func NewRTTEstimator(min, max time.Duration) *RTTEstimator {
	if min <= 0 {
		min = time.Millisecond
	}
	if max <= 0 {
		max = 30 * time.Second
	}
	if max < min {
		max = min
	}
	return &RTTEstimator{min: min, max: max}
}

// Observe feeds one sample. Non-positive samples are ignored.
func (e *RTTEstimator) Observe(sample time.Duration) {
	if sample <= 0 {
		return
	}
	if e.samples == 0 {
		e.srtt = sample
		e.rttvar = sample / 2
	} else {
		diff := e.srtt - sample
		if diff < 0 {
			diff = -diff
		}
		e.rttvar = (3*e.rttvar + diff) / 4
		e.srtt = (7*e.srtt + sample) / 8
	}
	e.samples++
}

// Timeout returns SRTT + 4·RTTVAR clamped to [min, max]; max before any
// samples exist.
func (e *RTTEstimator) Timeout() time.Duration {
	if e.samples == 0 {
		return e.max
	}
	rto := e.srtt + 4*e.rttvar
	if rto < e.min {
		rto = e.min
	}
	if rto > e.max {
		rto = e.max
	}
	return rto
}

// SRTT returns the smoothed sample, 0 before the first.
func (e *RTTEstimator) SRTT() time.Duration {
	return e.srtt
}

// Samples reports how many observations have been folded in.
func (e *RTTEstimator) Samples() int {
	return e.samples
}
