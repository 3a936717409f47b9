package core

import (
	"fmt"
	"time"

	"github.com/stsl/stsl/internal/data"
	"github.com/stsl/stsl/internal/nn"
	"github.com/stsl/stsl/internal/opt"
	"github.com/stsl/stsl/internal/tensor"
	"github.com/stsl/stsl/internal/transport"
)

// EndSystem is one client of the framework: it owns a private stack of
// the layers below the cut, its local dataset, and an optimiser for the
// private parameters. Raw inputs never leave the end-system; only the
// activations of its last local layer are transmitted.
//
// The split-learning protocol is lock-step per client: after sending an
// activation batch, the end-system must receive (and apply) the matching
// gradient before producing the next batch, because the layer stack
// caches one forward pass for the corresponding backward pass.
type EndSystem struct {
	// ID identifies the client in messages and metrics.
	ID int
	// Stack holds the private layers L1..Lk (possibly empty for cut=0).
	Stack *nn.Sequential
	// Optim updates the private parameters.
	Optim opt.Optimizer
	// Batcher streams the client's local shard.
	Batcher *data.Batcher

	seq         int
	epoch       int
	outstanding int // seq awaiting gradient, -1 when none
	// WireDType tags outgoing activation payloads: tensor.Float32 ships
	// their elements at float32 width (half the wire bytes). The zero
	// value ships float64.
	WireDType tensor.DType
}

// NewEndSystem wires a client together.
func NewEndSystem(id int, stack *nn.Sequential, optim opt.Optimizer, batcher *data.Batcher) (*EndSystem, error) {
	if stack == nil || optim == nil || batcher == nil {
		return nil, fmt.Errorf("core: end-system %d needs stack, optimiser and batcher", id)
	}
	return &EndSystem{ID: id, Stack: stack, Optim: optim, Batcher: batcher, outstanding: -1}, nil
}

// Steps returns the number of batches the client has sent so far.
func (e *EndSystem) Steps() int { return e.seq }

// Epoch returns the number of completed local epochs.
func (e *EndSystem) Epoch() int { return e.epoch }

// HasOutstanding reports whether the client is waiting for a gradient.
func (e *EndSystem) HasOutstanding() bool { return e.outstanding >= 0 }

// Outstanding returns the sequence number of the batch awaiting its
// gradient, or -1 when none is in flight. Reconnecting clients use it to
// tell the reply they are waiting for from a stale duplicate replayed by
// the network or the resume protocol.
func (e *EndSystem) Outstanding() int { return e.outstanding }

// DropScratch frees what an idle end-system holds only for its next
// step: its stack's convolution scratch and padded inputs, and its
// batcher's images buffer.
func (e *EndSystem) DropScratch() {
	e.Stack.DropScratch()
	e.Batcher.DropScratch()
}

// ProduceBatch draws the next local batch, runs the private forward pass,
// and returns the activation message to send. It fails if a previous
// batch's gradient is still outstanding.
func (e *EndSystem) ProduceBatch(now time.Duration) (*transport.Message, error) {
	if e.HasOutstanding() {
		return nil, fmt.Errorf("core: end-system %d has batch %d outstanding", e.ID, e.outstanding)
	}
	batch, ok := e.Batcher.Next()
	if !ok {
		e.epoch++
		batch, ok = e.Batcher.Next()
		if !ok {
			return nil, fmt.Errorf("core: end-system %d has an empty dataset", e.ID)
		}
	}
	act := e.Stack.Forward(batch.X, true)
	msg := &transport.Message{
		Type:     transport.MsgActivation,
		ClientID: e.ID,
		Seq:      e.seq,
		Epoch:    e.epoch,
		SentAt:   now,
		// A copy: the stack's output is its workspace, overwritten by the
		// next Forward, while the message may sit in a queue, in flight
		// or in a resend buffer past that.
		Payload: act.Clone().SetDType(e.WireDType),
		Labels:  batch.Y,
	}
	e.outstanding = e.seq
	e.seq++
	return msg, nil
}

// ApplyGradient consumes the server's gradient reply for the outstanding
// batch: it back-propagates through the private stack and steps the local
// optimiser. Nothing reads the gradient of the raw input, so the stack
// does not compute it (nn.Sequential.BackwardParams).
func (e *EndSystem) ApplyGradient(msg *transport.Message) error {
	if msg.Type != transport.MsgGradient {
		return fmt.Errorf("core: end-system %d got %v, want gradient", e.ID, msg.Type)
	}
	if !e.HasOutstanding() || msg.Seq != e.outstanding {
		return fmt.Errorf("core: end-system %d got gradient for seq %d, outstanding %d",
			e.ID, msg.Seq, e.outstanding)
	}
	e.Stack.ZeroGrad()
	e.Stack.BackwardParams(msg.Payload)
	e.Optim.Step(e.Stack.Params())
	e.outstanding = -1
	return nil
}
