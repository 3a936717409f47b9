package cluster

import (
	"context"
	"testing"
	"time"

	"github.com/stsl/stsl/internal/tensor"
	"github.com/stsl/stsl/internal/transport"
)

// gradientServer answers every activation with a zero gradient of its
// shape, after reply(seq, attempt) decides: a positive delay waits that
// long, a negative one drops the reply. attempt counts the activations
// received for seq so far, from 1. It reports the per-seq counts on
// sends when the client leaves.
func gradientServer(reply func(seq, attempt int) time.Duration, sends chan<- map[int]int) transport.Conn {
	return scriptedServer(func(peer transport.Conn) {
		got := map[int]int{}
		defer func() { sends <- got }()
		for {
			msg, err := peer.Recv()
			if err != nil || msg.Type != transport.MsgActivation {
				return
			}
			got[msg.Seq]++
			d := reply(msg.Seq, got[msg.Seq])
			if d < 0 {
				continue
			}
			time.Sleep(d)
			if peer.Send(&transport.Message{
				Type: transport.MsgGradient, ClientID: msg.ClientID, Seq: msg.Seq,
				Payload: tensor.New(msg.Payload.Shape()...),
			}) != nil {
				return
			}
		}
	})
}

// TestAdaptiveWaitRidesOutJitter: once the estimator has settled, a
// reply that comes late by ordinary jitter is waited for, not resent —
// a few milliseconds on a sub-millisecond round trip (below the resend
// floor), 40 % of a steady 20 ms round trip (below 2·SRTT, where a
// bare SRTT + 4·RTTVAR has shrunk to about 22 ms), or 2.3 times a
// steady 12 ms round trip (below 3·SRTT, the tail a busy 2-CPU host
// shows once a step is that fast).
func TestAdaptiveWaitRidesOutJitter(t *testing.T) {
	const steps, late = 16, 14
	for _, tc := range []struct {
		name      string
		base, lag time.Duration
	}{
		{"fast", 0, resendFloor / 4},
		{"steady-20ms", 20 * time.Millisecond, 8 * time.Millisecond},
		{"steady-12ms", 12 * time.Millisecond, 16 * time.Millisecond},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dep := buildDeployment(t, 1, "fifo")
			sends := make(chan map[int]int, 1)
			conn := gradientServer(func(seq, _ int) time.Duration {
				if seq == late {
					return tc.base + tc.lag
				}
				return tc.base
			}, sends)
			defer conn.Close()
			res, err := RunClient(context.Background(), dep.Clients[0], conn, ClientConfig{Steps: steps, GradTimeout: 5 * time.Second})
			if err != nil {
				t.Fatal(err)
			}
			conn.Close()
			got := <-sends
			if res.Resends != 0 || got[late] != 1 {
				t.Fatalf("a reply %v late drew %d resends (%d sends of batch %d), want none", tc.lag, res.Resends, got[late], late)
			}
		})
	}
}

// TestAdaptiveWaitResendsLostReply: a reply that never comes is still
// retried by the adaptive window — exactly once, long before the hard
// GradTimeout — and the run completes.
func TestAdaptiveWaitResendsLostReply(t *testing.T) {
	const steps, lost = 16, 14
	dep := buildDeployment(t, 1, "fifo")
	sends := make(chan map[int]int, 1)
	conn := gradientServer(func(seq, attempt int) time.Duration {
		if seq == lost && attempt == 1 {
			return -1
		}
		return 0
	}, sends)
	defer conn.Close()
	start := time.Now()
	res, err := RunClient(context.Background(), dep.Clients[0], conn, ClientConfig{Steps: steps, GradTimeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	conn.Close()
	got := <-sends
	if res.Resends != 1 || got[lost] != 2 || res.Steps != steps {
		t.Fatalf("a lost reply drew %d resends (%d sends of batch %d, %d steps), want exactly 1 resend",
			res.Resends, got[lost], lost, res.Steps)
	}
	if elapsed > time.Second {
		t.Fatalf("the run took %v: the lost reply waited for the hard timeout", elapsed)
	}
}
