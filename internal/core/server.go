package core

import (
	"fmt"
	"time"

	"github.com/stsl/stsl/internal/metrics"
	"github.com/stsl/stsl/internal/nn"
	"github.com/stsl/stsl/internal/opt"
	"github.com/stsl/stsl/internal/queue"
	"github.com/stsl/stsl/internal/tensor"
	"github.com/stsl/stsl/internal/transport"
)

// Server is the centralized side of the framework: the shared layers
// above the cut plus the output layer, the parameter-scheduling queue of
// §II, and the optimiser for the shared parameters. One server instance
// serves every end-system; its layer stack therefore sees all clients'
// data (in activation form) and learns a single global upper model.
type Server struct {
	// Stack holds the shared layers Lk+1..LN and the dense head.
	Stack *nn.Sequential
	// Optim updates the shared parameters.
	Optim opt.Optimizer
	// Queue is the parameter-scheduling discipline.
	Queue queue.Policy
	// QueueMetrics records service statistics.
	QueueMetrics *queue.Metrics
	// Losses tracks the training loss curve (window-averaged).
	Losses *metrics.LossCurve
	// Instr, when non-nil, receives step counts, per-stage pass timings
	// and the running loss — the same bundle whichever runtime drives
	// the server, so simulated and live step counters stay comparable.
	Instr *ServerInstruments

	steps int
	// dlogits is the loss gradient's workspace, reused across passes.
	dlogits *tensor.Tensor
	// lastBatchLoss is the raw (unwindowed) loss of the most recent
	// pass — what the live runtime feeds its own per-item curve.
	lastBatchLoss float64
}

// NewServer wires the centralized server together.
func NewServer(stack *nn.Sequential, optim opt.Optimizer, q queue.Policy) (*Server, error) {
	if stack == nil || optim == nil || q == nil {
		return nil, fmt.Errorf("core: server needs stack, optimiser and queue")
	}
	curve, err := metrics.NewLossCurve(10)
	if err != nil {
		return nil, err
	}
	return &Server{
		Stack:        stack,
		Optim:        optim,
		Queue:        q,
		QueueMetrics: queue.NewMetrics(),
		Losses:       curve,
	}, nil
}

// Steps returns the number of batches the server has processed.
func (s *Server) Steps() int { return s.steps }

// LastBatchLoss returns the raw loss of the most recent pass (0 before
// the first). Unlike Losses.Last it is per-batch, not window-averaged —
// the live runtime records it once per served item, under its own lock.
func (s *Server) LastBatchLoss() float64 { return s.lastBatchLoss }

// Enqueue admits an arriving activation message to the scheduling queue.
func (s *Server) Enqueue(msg *transport.Message, arrivedAt time.Duration) error {
	if msg.Type != transport.MsgActivation {
		return fmt.Errorf("core: server got %v, want activation", msg.Type)
	}
	s.Queue.Push(queue.Item{Msg: msg, ArrivedAt: arrivedAt})
	s.QueueMetrics.ObserveOccupancy(s.Queue.Len())
	return nil
}

// ProcessNext pops one item per the scheduling policy, runs the shared
// forward/backward pass, steps the shared optimiser, and returns the
// gradient reply addressed to the originating client. ok is false when
// the policy yields nothing (empty queue, or a gated policy holding).
func (s *Server) ProcessNext(now time.Duration) (reply *transport.Message, ok bool, err error) {
	it, ok := s.Queue.Pop(now)
	if !ok {
		return nil, false, nil
	}
	reply, err = s.Process(it, now)
	if err != nil {
		return nil, false, err
	}
	return reply, true, nil
}

// Process runs the shared forward/backward pass for one already-dequeued
// item, steps the shared optimiser, and returns the gradient reply. It is
// the compute half of ProcessNext, exposed so callers that own the
// dequeue (the live cluster worker) can observe the popped item — its
// client, staleness, arrival time — before handing it to the model.
//
// The reply answers in kind: its payload carries the wire dtype of the
// activation it answers, so each end-system chooses its own link's
// encoding and the server has no setting for it.
func (s *Server) Process(it queue.Item, now time.Duration) (*transport.Message, error) {
	s.QueueMetrics.ObserveServe(it, now)

	act := it.Msg.Payload
	var t0 time.Time
	if s.Instr != nil {
		t0 = time.Now()
	}
	s.Stack.ZeroGrad()
	logits := s.Stack.Forward(act, true)
	loss, dlogits, err := nn.SoftmaxCrossEntropyInto(s.dlogits, logits, it.Msg.Labels)
	if err != nil {
		return nil, fmt.Errorf("core: server loss for client %d seq %d: %w",
			it.Msg.ClientID, it.Msg.Seq, err)
	}
	s.dlogits = dlogits
	var t1 time.Time
	if s.Instr != nil {
		t1 = time.Now()
	}
	dact := s.Stack.Backward(dlogits)
	s.Optim.Step(s.Stack.Params())
	s.Losses.Observe(loss)
	s.lastBatchLoss = loss
	s.steps++
	if s.Instr != nil {
		s.Instr.observePass(1, t1.Sub(t0), time.Since(t1), s.Losses.Last())
	}

	return &transport.Message{
		Type:     transport.MsgGradient,
		ClientID: it.Msg.ClientID,
		Seq:      it.Msg.Seq,
		Epoch:    it.Msg.Epoch,
		SentAt:   now,
		// A copy: the stack's input gradient is its workspace, overwritten
		// by the next pass, while the reply lives on in the reply cache,
		// a pair carrier or a simulated downlink.
		Payload: dact.Clone().SetDType(act.DType()),
	}, nil
}

// ProcessNextBatch is the coalescing counterpart of ProcessNext: it
// drains up to max items per the scheduling policy in one PopBatch,
// runs them through a single stacked pass, and returns one gradient
// reply per item in pop order. ok is false when the policy yields
// nothing. max <= 1 degenerates to ProcessNext's semantics.
func (s *Server) ProcessNextBatch(now time.Duration, max int) (replies []*transport.Message, ok bool, err error) {
	items := s.Queue.PopBatch(now, max)
	if len(items) == 0 {
		return nil, false, nil
	}
	replies, err = s.ProcessBatch(items, now)
	if err != nil {
		return nil, false, err
	}
	return replies, true, nil
}

// ProcessBatch runs already-dequeued items through one coalesced
// forward/backward pass: per-client activation batches are stacked
// along the batch axis, the shared stack runs once over the combined
// batch, the optimiser takes a single step, and the input gradient is
// scattered back into per-item slices. The loss is averaged over the
// combined batch, so one coalesced pass is one SGD step over B
// micro-batches — a deliberate semantic of coalescing, identical in
// the live and virtual-time runtimes.
//
// Failure paths are pre-flighted before the forward pass: stacking
// compatibility, the combined shape against the stack's shape
// inference, and label ranges are all checked first, so a failing
// coalesced batch returns before any layer runs, with no optimiser
// step taken, and its error names the item at fault. A caller that
// owns fault attribution (the live cluster worker) can therefore retry
// the items one at a time without double-applying an update.
func (s *Server) ProcessBatch(items []queue.Item, now time.Duration) ([]*transport.Message, error) {
	switch len(items) {
	case 0:
		return nil, nil
	case 1:
		reply, err := s.Process(items[0], now)
		if err != nil {
			return nil, err
		}
		return []*transport.Message{reply}, nil
	}

	acts := make([]*tensor.Tensor, len(items))
	rows := make([]int, len(items))
	var labels []int
	for i, it := range items {
		act := it.Msg.Payload
		if act == nil || act.Dims() == 0 {
			return nil, fmt.Errorf("core: batch item %d (client %d seq %d) has no activation payload",
				i, it.Msg.ClientID, it.Msg.Seq)
		}
		if i > 0 && !tensor.SameTrailing(acts[0], act) {
			return nil, fmt.Errorf("core: batch item %d (client %d seq %d) activation shape %v incompatible with %v",
				i, it.Msg.ClientID, it.Msg.Seq, act.Shape(), acts[0].Shape())
		}
		if len(it.Msg.Labels) != act.Dim(0) {
			return nil, fmt.Errorf("core: batch item %d (client %d seq %d) has %d labels for %d rows",
				i, it.Msg.ClientID, it.Msg.Seq, len(it.Msg.Labels), act.Dim(0))
		}
		acts[i] = act
		rows[i] = act.Dim(0)
		labels = append(labels, it.Msg.Labels...)
	}

	// Thread the per-sample shape through the stack's shape inference
	// and range-check every label before running anything: a batch that
	// would fail later (bad geometry, out-of-range label) is rejected
	// before the optimiser can step and with the offending item named —
	// that is what makes the serial retry safe.
	logitShape, err := s.Stack.OutShape(acts[0].Shape()[1:])
	if err != nil {
		return nil, fmt.Errorf("core: coalesced batch of %d does not fit the server stack: %w", len(items), err)
	}
	if len(logitShape) != 1 {
		// The loss needs (N,classes) logits; a stack that cannot produce
		// them would fail only after a wasted training forward, so
		// reject it here.
		return nil, fmt.Errorf("core: server stack emits per-sample shape %v, want (classes)", logitShape)
	}
	classes := logitShape[0]
	for i, it := range items {
		for _, y := range it.Msg.Labels {
			if y < 0 || y >= classes {
				return nil, fmt.Errorf("core: batch item %d (client %d seq %d) label %d out of range [0,%d)",
					i, it.Msg.ClientID, it.Msg.Seq, y, classes)
			}
		}
	}

	stacked := tensor.ConcatRows(acts...)
	var t0 time.Time
	if s.Instr != nil {
		t0 = time.Now()
	}
	s.Stack.ZeroGrad()
	logits := s.Stack.Forward(stacked, true)
	loss, dlogits, err := nn.SoftmaxCrossEntropyInto(s.dlogits, logits, labels)
	if err != nil {
		return nil, fmt.Errorf("core: server loss for coalesced batch of %d: %w", len(items), err)
	}
	s.dlogits = dlogits
	var t1 time.Time
	if s.Instr != nil {
		t1 = time.Now()
	}
	dact := s.Stack.Backward(dlogits)
	s.Optim.Step(s.Stack.Params())
	// The batch-mean loss applies to every stacked micro-batch: observe
	// it once per item so the loss curve's step axis stays "client
	// batches served" at any coalescing setting.
	for range items {
		s.Losses.Observe(loss)
	}
	s.lastBatchLoss = loss
	s.steps += len(items)
	if s.Instr != nil {
		s.Instr.observePass(len(items), t1.Sub(t0), time.Since(t1), s.Losses.Last())
	}

	// SplitRows copies, so each reply owns its slice of the workspace.
	grads := tensor.SplitRows(dact, rows...)
	replies := make([]*transport.Message, len(items))
	for i, it := range items {
		s.QueueMetrics.ObserveServe(it, now)
		replies[i] = &transport.Message{
			Type:     transport.MsgGradient,
			ClientID: it.Msg.ClientID,
			Seq:      it.Msg.Seq,
			Epoch:    it.Msg.Epoch,
			SentAt:   now,
			Payload:  grads[i].SetDType(it.Msg.Payload.DType()),
		}
	}
	return replies, nil
}
