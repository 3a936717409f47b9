package queue

import "github.com/stsl/stsl/internal/obs"

// Instruments is the queue's telemetry bundle, labeled by policy so a
// dashboard can compare disciplines directly. All fields are optional
// (nil is a no-op); construct via NewInstruments for the standard
// metric names.
type Instruments struct {
	// Enqueued counts items admitted (stsl_queue_enqueued_total).
	Enqueued *obs.Counter
	// Dequeued counts items popped for service
	// (stsl_queue_dequeued_total).
	Dequeued *obs.Counter
	// Requeued counts orphan-recovery re-pushes
	// (stsl_queue_requeued_total).
	Requeued *obs.Counter
	// Parked counts admissions that blocked on the depth cap
	// (stsl_queue_parked_total). Incremented inside Safe.TryPushParking's
	// critical section, once per parked admission.
	Parked *obs.Counter
	// Expired counts items shed past their enqueue deadline
	// (stsl_queue_expired_total). Incremented inside
	// Safe.PopBatchDeadline's critical section. The occupancy invariant
	// is enqueued − dequeued − expired = depth: an expired item leaves
	// the queue without ever counting as served.
	Expired *obs.Counter
	// Wait is the per-item queue-wait distribution, observed at pop
	// (stsl_queue_wait_seconds) — the live measurement of the paper's
	// staleness concern.
	Wait *obs.Histogram
	// Depth tracks the current queue occupancy (stsl_queue_depth).
	Depth *obs.Gauge
}

// NewInstruments registers the queue metric family on reg under the
// given policy label. A nil reg returns all-nil (no-op) instruments.
func NewInstruments(reg *obs.Registry, policy string) *Instruments {
	l := obs.Labels{"policy": policy}
	return &Instruments{
		Enqueued: reg.Counter("stsl_queue_enqueued_total", l),
		Dequeued: reg.Counter("stsl_queue_dequeued_total", l),
		Requeued: reg.Counter("stsl_queue_requeued_total", l),
		Parked:   reg.Counter("stsl_queue_parked_total", l),
		Expired:  reg.Counter("stsl_queue_expired_total", l),
		Wait:     reg.Histogram("stsl_queue_wait_seconds", l),
		Depth:    reg.Gauge("stsl_queue_depth", l),
	}
}
