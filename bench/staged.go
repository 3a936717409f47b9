package main

import (
	"bytes"
	"fmt"
	"runtime"
	"time"

	"github.com/stsl/stsl/internal/nn"
	"github.com/stsl/stsl/internal/queue"
	"github.com/stsl/stsl/internal/tensor"
	"github.com/stsl/stsl/internal/transport"
)

// Staged span names: one per layer call, in protocol order.
const (
	spanStep       = "step"
	spanProduce    = "core.produce"
	spanEncodeAct  = "transport.encode_act"
	spanDecodeAct  = "transport.decode_act"
	spanQueue      = "queue.push_pop"
	spanProcess    = "core.process"
	spanEncodeGrad = "transport.encode_grad"
	spanDecodeGrad = "transport.decode_grad"
	spanApply      = "core.apply"

	spanNextBatch     = "data.next_batch"
	spanClientForward = "nn.client_forward"
	spanServerForward = "nn.server_forward"
	spanServerBack    = "nn.server_backward"
	spanServerOpt     = "opt.server_step"
	spanClientBack    = "nn.client_backward"
	spanClientOpt     = "opt.client_step"
)

// runStaged walks StagedSteps steps of the workload's deployment through
// each layer's public function on one goroutine, in protocol order, with
// a span around every call: what a step costs without the runtime around
// it (TCP, goroutine hand-offs, session bookkeeping, queue wait). A twin
// deployment from the same seed is walked through the calls core makes
// internally (forward, backward, optimiser) so those are timed apart.
func runStaged(w workload, seed uint64) (*roundRecord, error) {
	shard, err := w.generate(seed)
	if err != nil {
		return nil, fmt.Errorf("%s: generate data: %w", w.Name, err)
	}
	dep, err := w.deploy(seed, shard, 1)
	if err != nil {
		return nil, err
	}
	pol, err := queue.NewPolicy("fifo")
	if err != nil {
		return nil, err
	}
	q := queue.NewSafe(pol)
	es, srv := dep.Clients[0], dep.Server
	epoch := time.Now()
	tr := &recorder{epoch: epoch}
	clock := func() time.Duration { return time.Since(epoch) }
	encode := func(m *transport.Message, buf *bytes.Buffer) error {
		buf.Reset()
		if w.Checksum {
			return m.EncodeChecksummed(buf)
		}
		return m.Encode(buf)
	}
	// timed runs f and records its span under the current step.
	var stepID int
	timed := func(name string, f func() error) error {
		t0 := time.Now()
		err := f()
		tr.add(stepID, 0, name, t0, time.Now())
		if err != nil {
			return fmt.Errorf("staged %s: %w", name, err)
		}
		return nil
	}

	var actBuf, gradBuf bytes.Buffer
	var actBytes, gradBytes int
	var act, act2, grad, grad2 *transport.Message
	var item queue.Item
	stages := []struct {
		name string
		f    func() error
	}{
		{spanProduce, func() (err error) { act, err = es.ProduceBatch(clock()); return }},
		{spanEncodeAct, func() error { return encode(act, &actBuf) }},
		{spanDecodeAct, func() (err error) {
			actBytes = actBuf.Len()
			act2, err = transport.Decode(bytes.NewReader(actBuf.Bytes()))
			return
		}},
		{spanQueue, func() error {
			q.Push(queue.Item{Msg: act2, ArrivedAt: clock()})
			var ok bool
			if item, ok = q.Pop(clock()); !ok {
				return fmt.Errorf("queue yielded nothing")
			}
			return nil
		}},
		{spanProcess, func() (err error) { grad, err = srv.Process(item, clock()); return }},
		{spanEncodeGrad, func() error { return encode(grad, &gradBuf) }},
		{spanDecodeGrad, func() (err error) {
			gradBytes = gradBuf.Len()
			grad2, err = transport.Decode(bytes.NewReader(gradBuf.Bytes()))
			return
		}},
		{spanApply, func() error { return es.ApplyGradient(grad2) }},
	}
	for i := 0; i < w.StagedSteps; i++ {
		t0 := time.Now()
		stepID = tr.add(0, 0, spanStep, t0, t0)
		for _, st := range stages {
			if err := timed(st.name, st.f); err != nil {
				return nil, err
			}
		}
		tr.spans[stepID-1].End = time.Since(epoch).Nanoseconds()
	}

	// The codec's allocations per message, counted over a quiet loop of
	// encode + decode of the last step's two messages.
	const codecMsgs = 64
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < codecMsgs/2; i++ {
		for _, p := range []struct {
			m   *transport.Message
			buf *bytes.Buffer
		}{{act, &actBuf}, {grad, &gradBuf}} {
			if err := encode(p.m, p.buf); err != nil {
				return nil, err
			}
			if _, err := transport.Decode(bytes.NewReader(p.buf.Bytes())); err != nil {
				return nil, err
			}
		}
	}
	runtime.ReadMemStats(&after)

	// The twin: same seed, so the same weights and batches.
	twin, err := w.deploy(seed, shard, 1)
	if err != nil {
		return nil, err
	}
	tes, tsrv := twin.Clients[0], twin.Server
	for i := 0; i < w.StagedSteps; i++ {
		t0 := time.Now()
		stepID = tr.add(0, 1, spanStep, t0, t0)
		var x, a, logits, dlogits, dact *tensor.Tensor
		var labels []int
		inner := []struct {
			name string
			f    func() error
		}{
			{spanNextBatch, func() error {
				b, ok := tes.Batcher.Next()
				if !ok {
					if b, ok = tes.Batcher.Next(); !ok {
						return fmt.Errorf("empty dataset")
					}
				}
				x, labels = b.X, b.Y
				return nil
			}},
			{spanClientForward, func() error { a = tes.Stack.Forward(x, true); return nil }},
			{spanServerForward, func() (err error) {
				tsrv.Stack.ZeroGrad()
				logits = tsrv.Stack.Forward(a, true)
				_, dlogits, err = nn.SoftmaxCrossEntropy(logits, labels)
				return
			}},
			{spanServerBack, func() error { dact = tsrv.Stack.Backward(dlogits); return nil }},
			{spanServerOpt, func() error { tsrv.Optim.Step(tsrv.Stack.Params()); return nil }},
			{spanClientBack, func() error { tes.Stack.ZeroGrad(); tes.Stack.Backward(dact); return nil }},
			{spanClientOpt, func() error { tes.Optim.Step(tes.Stack.Params()); return nil }},
		}
		for _, st := range inner {
			if err := timed(st.name, st.f); err != nil {
				return nil, err
			}
		}
		tr.spans[stepID-1].End = time.Since(epoch).Nanoseconds()
	}

	rec := &roundRecord{Workload: w.Name, Seed: seed, Steps: w.StagedSteps,
		Samples: map[string]int{"staged": w.StagedSteps}, Metrics: map[string]float64{}}
	m := rec.Metrics
	medMs := func(name string) float64 { return median(durationsMs(tr.spans, name)) }
	medUs := func(name string) float64 { return 1e3 * medMs(name) }
	m["core.produce_ms"] = medMs(spanProduce)
	m["core.process_ms"] = medMs(spanProcess)
	m["core.apply_ms"] = medMs(spanApply)
	m["transport.encode_act_us"] = medUs(spanEncodeAct)
	m["transport.decode_act_us"] = medUs(spanDecodeAct)
	m["transport.encode_grad_us"] = medUs(spanEncodeGrad)
	m["transport.decode_grad_us"] = medUs(spanDecodeGrad)
	m["transport.act_frame_bytes"] = float64(actBytes)
	m["transport.grad_frame_bytes"] = float64(gradBytes)
	m["transport.codec_allocs_per_msg"] = float64(after.Mallocs-before.Mallocs) / codecMsgs
	m["queue.push_pop_us"] = medUs(spanQueue)
	m["data.next_batch_us"] = medUs(spanNextBatch)
	m["nn.client_forward_ms"] = medMs(spanClientForward)
	m["nn.client_backward_ms"] = medMs(spanClientBack)
	m["nn.server_forward_ms"] = medMs(spanServerForward)
	m["nn.server_backward_ms"] = medMs(spanServerBack)
	m["opt.client_step_us"] = medUs(spanClientOpt)
	m["opt.server_step_us"] = medUs(spanServerOpt)
	// The step without the runtime around it: the protocol-order walk's
	// steps (trace 0), each the sum of its eight calls.
	m["core.stage_sum_ms"] = median(durationsMs(spansOfTrace(tr.spans, 0), spanStep))
	return rec, nil
}
