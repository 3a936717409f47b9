package core

import (
	"container/heap"
	"fmt"
	"time"

	"github.com/stsl/stsl/internal/queue"
	"github.com/stsl/stsl/internal/simnet"
	"github.com/stsl/stsl/internal/transport"
)

// SimConfig parameterises the event-driven virtual-time simulation that
// reproduces the paper's spatio-temporal setting.
type SimConfig struct {
	// Paths gives each client's network path to the server; length must
	// equal the deployment's client count.
	Paths []*simnet.Path
	// MaxStepsPerClient bounds how many batches each client contributes
	// (0 = unbounded; then TimeLimit must be set).
	MaxStepsPerClient int
	// TimeLimit stops clients from producing new batches after this
	// virtual time (0 = no limit; then MaxStepsPerClient must be set).
	TimeLimit time.Duration
	// ServerProcTime models the server's per-batch compute time.
	ServerProcTime time.Duration
	// ClientProcTime models the client's per-batch compute time
	// (forward + backward).
	ClientProcTime time.Duration
	// RetransmitTimeout is the sender's loss-recovery timeout when a
	// link has a non-zero drop probability (default 200ms).
	RetransmitTimeout time.Duration
	// Trace, when true, records a queue-occupancy/event trace in the
	// result (one entry per simulation event).
	Trace bool
}

func (c SimConfig) validate(clients int) error {
	if len(c.Paths) != clients {
		return fmt.Errorf("core: %d paths for %d clients", len(c.Paths), clients)
	}
	for i, p := range c.Paths {
		if p == nil || p.Up == nil || p.Down == nil {
			return fmt.Errorf("core: path %d incomplete", i)
		}
	}
	if c.MaxStepsPerClient <= 0 && c.TimeLimit <= 0 {
		return fmt.Errorf("core: simulation needs MaxStepsPerClient or TimeLimit")
	}
	if c.ServerProcTime < 0 || c.ClientProcTime < 0 {
		return fmt.Errorf("core: negative processing time")
	}
	return nil
}

// SimResult summarises one simulation run.
type SimResult struct {
	// VirtualDuration is the virtual time at which the last event fired.
	VirtualDuration time.Duration
	// StepsPerClient counts batches contributed (gradient fully applied)
	// by each client.
	StepsPerClient []int
	// ServerSteps is the total number of batches the server processed.
	ServerSteps int
	// FinalLoss is the last window-averaged training loss.
	FinalLoss float64
	// Retransmits counts loss-recovery retransmissions across all links.
	Retransmits int
	// Trace holds the per-event trace when SimConfig.Trace is set.
	Trace []TraceEvent
}

// TraceEvent is one recorded simulation event.
type TraceEvent struct {
	At       time.Duration
	Kind     string // "activation-arrive", "server-done", "gradient-arrive"
	ClientID int
	QueueLen int
}

type eventKind uint8

const (
	evActivationArrive eventKind = iota + 1
	evServerDone
	evGradientArrive
)

// String implements fmt.Stringer for trace output.
func (k eventKind) String() string {
	switch k {
	case evActivationArrive:
		return "activation-arrive"
	case evServerDone:
		return "server-done"
	case evGradientArrive:
		return "gradient-arrive"
	default:
		return "unknown"
	}
}

type event struct {
	at   time.Duration
	seq  int // insertion order, breaks ties deterministically
	kind eventKind
	msg  *transport.Message
	// batch carries every gradient reply of a coalesced server pass for
	// evServerDone events; msg doubles as its first entry so tracing and
	// tie-breaking stay uniform. nil for single-reply and client events.
	batch []*transport.Message
}

type eventHeap []event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x interface{}) { *h = append(*h, x.(event)) }
func (h *eventHeap) Pop() interface{} {
	old := *h
	n := len(old)
	ev := old[n-1]
	*h = old[:n-1]
	return ev
}

// Simulation drives a Deployment through the split-learning protocol over
// simulated geo-distributed links and a virtual clock. All state is owned
// by the single goroutine calling Run; determinism follows from the
// deterministic event order and RNG streams.
type Simulation struct {
	dep   *Deployment
	cfg   SimConfig
	clock simnet.Clock

	events      eventHeap
	eventSeq    int
	serverBusy  bool
	done        []bool // per-client: will produce no more batches
	retransmits int
	trace       []TraceEvent
}

// NewSimulation validates and wires a simulation.
func NewSimulation(dep *Deployment, cfg SimConfig) (*Simulation, error) {
	if dep == nil {
		return nil, fmt.Errorf("core: nil deployment")
	}
	if err := cfg.validate(len(dep.Clients)); err != nil {
		return nil, err
	}
	return &Simulation{
		dep:  dep,
		cfg:  cfg,
		done: make([]bool, len(dep.Clients)),
	}, nil
}

func (s *Simulation) schedule(at time.Duration, kind eventKind, msg *transport.Message) {
	s.eventSeq++
	heap.Push(&s.events, event{at: at, seq: s.eventSeq, kind: kind, msg: msg})
}

// scheduleBatch schedules one server-done event carrying every reply of
// a coalesced pass.
func (s *Simulation) scheduleBatch(at time.Duration, replies []*transport.Message) {
	s.eventSeq++
	heap.Push(&s.events, event{at: at, seq: s.eventSeq, kind: evServerDone, msg: replies[0], batch: replies})
}

// batchCoalesce returns the deployment's coalescing cap, clamped to a
// minimum of one item per pass.
func (s *Simulation) batchCoalesce() int {
	if b := s.dep.Config.BatchCoalesce; b > 1 {
		return b
	}
	return 1
}

// payloadBytes estimates a message's wire size for bandwidth delay.
func payloadBytes(m *transport.Message) int {
	n := 64 // headers
	if m.Payload != nil {
		n += 8 * m.Payload.Size()
	}
	n += 4 * len(m.Labels)
	return n
}

// linkDelay computes the total delivery delay over a lossy link,
// including retransmission timeouts for dropped attempts.
func (s *Simulation) linkDelay(l *simnet.Link, sizeBytes int) (time.Duration, error) {
	rto := s.cfg.RetransmitTimeout
	if rto <= 0 {
		rto = 200 * time.Millisecond
	}
	total := time.Duration(0)
	const maxAttempts = 1000
	for attempt := 0; attempt < maxAttempts; attempt++ {
		if !l.Dropped() {
			return total + l.Delay(sizeBytes), nil
		}
		s.retransmits++
		total += rto
	}
	return 0, fmt.Errorf("core: link dropped %d consecutive attempts (DropProb too high?)", maxAttempts)
}

// produceFrom asks client i for its next batch and schedules its arrival
// at the server; it marks the client done when budget or time is
// exhausted.
func (s *Simulation) produceFrom(i int, now time.Duration) error {
	client := s.dep.Clients[i]
	budgetLeft := s.cfg.MaxStepsPerClient <= 0 || client.Steps() < s.cfg.MaxStepsPerClient
	timeLeft := s.cfg.TimeLimit <= 0 || now < s.cfg.TimeLimit
	if !budgetLeft || !timeLeft {
		s.markDone(i)
		return nil
	}
	sendAt := now + s.cfg.ClientProcTime
	msg, err := client.ProduceBatch(sendAt)
	if err != nil {
		return err
	}
	delay, err := s.linkDelay(s.cfg.Paths[i].Up, payloadBytes(msg))
	if err != nil {
		return err
	}
	s.schedule(sendAt+delay, evActivationArrive, msg)
	return nil
}

func (s *Simulation) markDone(i int) {
	if s.done[i] {
		return
	}
	s.done[i] = true
	// A gated policy must stop waiting for this client.
	if sync, ok := s.dep.Server.Queue.(*queue.SyncRounds); ok {
		sync.Deactivate(i)
	}
}

// tryServe pops and processes queue items while the server is free and
// the policy yields work. With BatchCoalesce > 1 a single pass consumes
// up to that many queued activations, mirroring the live cluster
// worker's micro-batch coalescing in virtual time.
func (s *Simulation) tryServe(now time.Duration) error {
	if s.serverBusy {
		return nil
	}
	replies, ok, err := s.dep.Server.ProcessNextBatch(now, s.batchCoalesce())
	if err != nil {
		return err
	}
	if !ok {
		return nil
	}
	s.serverBusy = true
	s.scheduleBatch(now+s.cfg.ServerProcTime, replies)
	return nil
}

// Run executes the simulation to completion and reports the result.
func (s *Simulation) Run() (*SimResult, error) {
	// Prime every client.
	for i := range s.dep.Clients {
		if err := s.produceFrom(i, 0); err != nil {
			return nil, err
		}
	}
	// Hard cap on event count guards against scheduling bugs looping
	// forever: every client batch generates exactly 3 events.
	maxEvents := 10 + 3*len(s.dep.Clients)
	if s.cfg.MaxStepsPerClient > 0 {
		maxEvents += 3 * len(s.dep.Clients) * s.cfg.MaxStepsPerClient
	} else {
		maxEvents += 30_000_000
	}
	processed := 0
	for s.events.Len() > 0 {
		if processed++; processed > maxEvents {
			return nil, fmt.Errorf("core: simulation exceeded %d events (scheduling bug?)", maxEvents)
		}
		ev, ok := heap.Pop(&s.events).(event)
		if !ok {
			return nil, fmt.Errorf("core: event heap corrupted")
		}
		s.clock.AdvanceTo(ev.at)
		now := s.clock.Now()
		if s.cfg.Trace {
			s.trace = append(s.trace, TraceEvent{
				At:       now,
				Kind:     ev.kind.String(),
				ClientID: ev.msg.ClientID,
				QueueLen: s.dep.Server.Queue.Len(),
			})
		}
		switch ev.kind {
		case evActivationArrive:
			if err := s.dep.Server.Enqueue(ev.msg, now); err != nil {
				return nil, err
			}
			if err := s.tryServe(now); err != nil {
				return nil, err
			}
		case evServerDone:
			s.serverBusy = false
			replies := ev.batch
			if replies == nil {
				replies = []*transport.Message{ev.msg}
			}
			// Every reply of a coalesced pass departs when the pass ends;
			// each rides its own client's downlink.
			for _, reply := range replies {
				cid := reply.ClientID
				delay, err := s.linkDelay(s.cfg.Paths[cid].Down, payloadBytes(reply))
				if err != nil {
					return nil, err
				}
				s.schedule(now+delay, evGradientArrive, reply)
			}
			if err := s.tryServe(now); err != nil {
				return nil, err
			}
		case evGradientArrive:
			cid := ev.msg.ClientID
			if err := s.dep.Clients[cid].ApplyGradient(ev.msg); err != nil {
				return nil, err
			}
			if err := s.produceFrom(cid, now); err != nil {
				return nil, err
			}
			// Production may have unblocked a gated policy.
			if err := s.tryServe(now); err != nil {
				return nil, err
			}
		default:
			return nil, fmt.Errorf("core: unknown event kind %d", ev.kind)
		}
	}
	res := &SimResult{
		VirtualDuration: s.clock.Now(),
		StepsPerClient:  make([]int, len(s.dep.Clients)),
		ServerSteps:     s.dep.Server.Steps(),
		FinalLoss:       s.dep.Server.Losses.Last(),
		Retransmits:     s.retransmits,
		Trace:           s.trace,
	}
	for i, c := range s.dep.Clients {
		res.StepsPerClient[i] = c.Steps()
	}
	return res, nil
}
