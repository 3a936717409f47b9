// Package cluster is the live, real-concurrency runtime for
// spatio-temporal split learning: the production counterpart of the
// event-driven virtual-time Simulation in internal/core.
//
// In the simulation, end-systems are entries in an event heap and
// "arrival skew" is a scheduled timestamp. Here they are real concurrent
// actors: each end-system runs in its own goroutine (or OS process, via
// cmd/stsl-endsystem) and talks to a live Server over the
// internal/transport wire protocol — real TCP, net.Pipe with the binary
// framing, or in-memory channel pairs. The server feeds every arriving
// activation into a single mutex-guarded instance of the paper's
// scheduling queue (queue.Safe wrapping any queue.Policy) and drains it
// with one worker goroutine that owns all model state — the paper's one
// centralized server — so the paper's parameter-scheduling discipline
// absorbs actual wall-clock arrival skew. The session layer
// (join/resume/park/leave, reply cache, janitor) owns no model state at
// all — see DESIGN.md §3.5 for the split. With Config.BatchCoalesce the
// worker drains up to B queued activations per pick and runs them as
// one stacked forward/backward pass, scattering per-client gradient
// slices back to their sessions.
//
// The pieces:
//
//   - Server: accepts end-system sessions, runs the join/leave
//     handshake, admits activations with bounded backpressure
//     (sessions park past a queue-depth cap), detects stragglers,
//     shuts down gracefully via context, and publishes live metric
//     Snapshots (throughput, queue depth, per-client staleness).
//     Sessions are elastic: a client that loses its link within
//     Config.ResumeGrace reconnects with its session token and resumes
//     — same id, queued items, reply cache — instead of being evicted
//     (see DESIGN.md §3.3 for the lifecycle and exactly-once rules).
//     With Config.Checkpoint the worker persists training state
//     periodically and at shutdown, so a restarted server resumes from
//     the last step while retry-enabled clients re-handshake.
//   - RunClient: drives one core.EndSystem over a connection with the
//     lock-step split-learning semantics, a gradient straggler timeout,
//     automatic resend of a batch the server bounced, and — with
//     ClientConfig.Dial — reconnect/resume across connection losses
//     and server restarts.
//   - Run (the ClusterRunner): wires M client goroutines to an
//     in-process Server over a chosen transport and runs the whole
//     deployment to completion — the harness tests and benchmarks use
//     to compare live-concurrent training against the virtual-time
//     simulation on the same seed. RunnerConfig.Faults wraps each
//     client's carrier in a seeded transport.FaultCarrier, which is how
//     the chaos conformance suite injects deterministic churn.
package cluster

import (
	"fmt"
	"time"

	"github.com/stsl/stsl/internal/core"
	"github.com/stsl/stsl/internal/obs"
)

// Config parameterises a cluster Server.
type Config struct {
	// QueueCap bounds the scheduling queue depth; an arrival beyond it
	// parks in its session goroutine until the queue has headroom, so
	// backpressure reaches the client through the transport (its next
	// Send blocks). 0 defaults to 64; negative = unbounded. With a gated
	// policy (sync-rounds) the cap is lifted automatically — capping
	// below the client count would deadlock the gate, and lock-step
	// already bounds depth to M.
	QueueCap int
	// StragglerTimeout drops a session whose client has been silent for
	// this long, and closes a connection that has not introduced itself
	// within it (0 = never). Dropped clients are deactivated in gated
	// queue policies so they cannot stall a synchronous round.
	StragglerTimeout time.Duration
	// BatchCoalesce caps how many queued activations the worker drains
	// per PopBatch and stacks into one coalesced forward/backward pass
	// (0 or 1 = serve one at a time). Coalescing amortises the model's
	// conv/matmul hot path across concurrently arriving clients — the
	// server's throughput lever under heavy traffic. One coalesced pass
	// is one optimiser step over the combined batch; the virtual-time
	// simulation applies the same semantics, so live and simulated
	// training stay loss-equivalent at equal settings. With sync-rounds
	// the gated round is atomic and may exceed this cap.
	BatchCoalesce int
	// ResumeGrace keeps a disconnected session's server-side state — id,
	// token, queued items, reply cache, round position — alive for this
	// long so the client can reconnect and resume instead of being
	// evicted. 0 disables resume: a lost connection ends the session
	// immediately, the pre-churn behaviour. While a session is parked the
	// worker keeps serving its queued items (replies wait in the cache),
	// and a gated policy keeps counting it — grace is the knob trading
	// round stall against eviction.
	ResumeGrace time.Duration
	// Workers must be 0 or 1: the one worker goroutine owns the model.
	// The data-parallel worker pool it once sized was removed; the field
	// stays only until the benchmark stops setting it.
	Workers int
	// CheckpointEvery invokes Checkpoint after every this many server
	// steps. 0 with a non-nil Checkpoint still writes the final
	// checkpoint at worker exit.
	CheckpointEvery int
	// Checkpoint, when non-nil, persists the model's training state. It
	// is called only from the worker between passes, or after the worker
	// exited, so it can never observe a half-applied update; it runs
	// every CheckpointEvery steps and once more at shutdown, making a
	// server restart nearly lossless. It is never handed non-finite
	// weights. Use FileCheckpointer for the standard file sink.
	Checkpoint func(*core.Server) error
	// Now supplies protocol timestamps. nil uses a monotonic wall clock
	// started at Server.Start; the in-process runner injects one shared
	// clock across server and clients so staleness ordering is
	// consistent.
	Now func() time.Duration
	// Obs, when non-nil, is the registry this server's telemetry lands
	// in: queue depth/wait histograms per policy, session lifecycle
	// counters, worker stage timings, and the core model server's step
	// and loss metrics. The record path is a few atomic ops per event —
	// cheap enough to leave on (the bench harness bounds the overhead
	// at ≤2% steps/s). nil disables all of it.
	Obs *obs.Registry
	// Tracer, when non-nil, receives session lifecycle events and
	// worker spans into its bounded in-memory ring — the flight
	// recorder behind the admin listener's /trace endpoint. nil
	// disables tracing.
	Tracer *obs.Tracer

	// MaxSessions caps concurrently live sessions (joined, not yet done
	// or ended). A join beyond the cap is refused with a structured
	// RefusalOverloaded control reply carrying a RetryAfter hint — the
	// client backs off and retries — rather than a dropped connection.
	// Resuming a session the server still holds never counts against the
	// cap (its slot is already held). 0 = unlimited.
	MaxSessions int
	// WorkDeadline stamps every admitted activation with an enqueue
	// deadline; the worker sheds items that outlive it un-served (counted
	// in stsl_queue_expired_total) and tells the client to resend, so a
	// collapsed queue spends model passes only on work whose client is
	// still waiting for the answer. 0 = no deadline.
	WorkDeadline time.Duration
	// SendTimeout bounds any single worker reply send when the carrier
	// supports write deadlines (TCP and net.Pipe do): a client that stops
	// reading — a stalled reader — is evicted instead of wedging the
	// worker that serves everyone behind its backpressure. Carriers
	// without deadlines keep the blocking behaviour. 0 = no bound.
	SendTimeout time.Duration

	// Checksum, when set, enables CRC32C-checksummed wire framing on
	// every connection handed to Attach (via transport.SetChecksum), so
	// server-originated frames carry integrity trailers. Decoding needs
	// no negotiation — the checksummed frame is self-describing — so a
	// checksumming server interoperates with plain clients and vice
	// versa; corrupted inbound frames are detected either way.
	Checksum bool
	// Sanitize arms the activation sanitizer: every inbound activation
	// payload is screened for NaN/Inf and norm outliers before it can
	// reach the scheduling queue, and clients that repeatedly send
	// garbage are quarantined (session aborted, id blocklisted). See
	// sanitize.go for the envelope and suspicion mechanics.
	Sanitize bool
}

// validate rejects nonsensical knob values at construction with a
// descriptive error. A negative duration silently treated as "disabled"
// costs real debugging time in a deployment manifest; fail loudly
// instead.
func (c Config) validate() error {
	if c.Workers < 0 || c.Workers > 1 {
		return fmt.Errorf("cluster: Workers must be 0 or 1, got %d: the data-parallel worker pool was removed, one worker owns the model", c.Workers)
	}
	if c.MaxSessions < 0 {
		return fmt.Errorf("cluster: MaxSessions must be >= 0 (0 = unlimited), got %d", c.MaxSessions)
	}
	for _, d := range []struct {
		name string
		v    time.Duration
	}{
		{"StragglerTimeout", c.StragglerTimeout},
		{"ResumeGrace", c.ResumeGrace},
		{"WorkDeadline", c.WorkDeadline},
		{"SendTimeout", c.SendTimeout},
	} {
		if d.v < 0 {
			return fmt.Errorf("cluster: %s must be >= 0, got %v", d.name, d.v)
		}
	}
	return nil
}

func (c Config) withDefaults() Config {
	if c.QueueCap == 0 {
		c.QueueCap = 64
	}
	if c.QueueCap < 0 {
		c.QueueCap = 0 // unbounded for queue.Safe.TryPushParking
	}
	return c
}
