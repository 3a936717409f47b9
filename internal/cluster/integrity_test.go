package cluster

import (
	"bytes"
	"context"
	"math"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/stsl/stsl/internal/core"
	"github.com/stsl/stsl/internal/obs"
	"github.com/stsl/stsl/internal/simnet"
	"github.com/stsl/stsl/internal/transport"
)

// normPayload is a payload whose L2 norm is exactly n.
func normPayload(n float64) []float64 { return []float64{n} }

// TestSanitizerNaNQuarantine: a non-finite payload quarantines its
// client immediately — no warmup, no suspicion ramp.
func TestSanitizerNaNQuarantine(t *testing.T) {
	z := newSanitizer(16, 4, 3)
	v, score, why := z.check(1, []float64{1, math.NaN(), 3})
	if v != sanitizeQuarantine || score != 3 || why == "" {
		t.Fatalf("NaN payload: verdict=%v score=%v why=%q, want immediate quarantine at limit", v, score, why)
	}
	if v, _, _ := z.check(2, []float64{1, math.Inf(1)}); v != sanitizeQuarantine {
		t.Fatalf("Inf payload: verdict=%v, want quarantine", v)
	}
}

// TestSanitizerWarmup: before the envelope holds sanitizeWarmup accepted
// norms, no outlier verdicts are issued — an honest early client with an
// unusual first batch must not be flagged by a noise-level std estimate.
func TestSanitizerWarmup(t *testing.T) {
	z := newSanitizer(16, 4, 3)
	for i := 0; i < sanitizeWarmup; i++ {
		norm := 1.0
		if i == 2 {
			norm = 1000 // weird, but the envelope is still warming up
		}
		if v, _, why := z.check(i, normPayload(norm)); v != sanitizeOK {
			t.Fatalf("sample %d during warmup: verdict=%v (%s), want OK", i, v, why)
		}
	}
}

// TestSanitizerOutlierEscalation: after warmup, norm bombs raise
// suspicion by one per rejected payload and quarantine at the limit —
// and the rejected norms never enter the envelope, so the bomber cannot
// stretch it until bombs look normal.
func TestSanitizerOutlierEscalation(t *testing.T) {
	z := newSanitizer(16, 4, 3)
	for i := 0; i < 10; i++ {
		if v, _, _ := z.check(i%5, normPayload(1+0.01*float64(i))); v != sanitizeOK {
			t.Fatalf("clean sample %d rejected", i)
		}
	}
	const bomber = 9
	v1, s1, why := z.check(bomber, normPayload(1e6))
	if v1 != sanitizeReject || s1 != 1 || !strings.Contains(why, "outside envelope") {
		t.Fatalf("bomb 1: verdict=%v score=%v why=%q, want reject at suspicion 1", v1, s1, why)
	}
	if v2, s2, _ := z.check(bomber, normPayload(1e6)); v2 != sanitizeReject || s2 != 2 {
		t.Fatalf("bomb 2: verdict=%v score=%v, want reject at suspicion 2", v2, s2)
	}
	if v3, s3, _ := z.check(bomber, normPayload(1e6)); v3 != sanitizeQuarantine || s3 != 3 {
		t.Fatalf("bomb 3: verdict=%v score=%v, want quarantine at the limit", v3, s3)
	}
	// The envelope was not polluted: healthy traffic still passes, and a
	// fresh bomber's first bomb is still an outlier.
	if v, _, _ := z.check(1, normPayload(1.02)); v != sanitizeOK {
		t.Fatal("healthy norm rejected after the bombing run")
	}
	if v, _, _ := z.check(8, normPayload(1e6)); v != sanitizeReject {
		t.Fatal("rejected bombs leaked into the envelope — a later bomb passed as normal")
	}
}

// TestSanitizerSuspicionDecay: clean payloads halve suspicion, and below
// 0.25 the client is forgotten — a transient glitch is not a permanent
// mark.
func TestSanitizerSuspicionDecay(t *testing.T) {
	z := newSanitizer(16, 4, 3)
	for i := 0; i < 10; i++ {
		z.check(i%5, normPayload(1))
	}
	const client = 7
	if v, _, _ := z.check(client, normPayload(1e6)); v != sanitizeReject {
		t.Fatal("outlier not rejected")
	}
	for _, want := range []float64{0.5, 0.25, 0} {
		v, score, _ := z.check(client, normPayload(1))
		if v != sanitizeOK || score != want {
			t.Fatalf("clean sample after glitch: verdict=%v score=%v, want OK at %v", v, score, want)
		}
	}
	if _, tracked := z.suspicion[client]; tracked {
		t.Fatal("fully decayed client still tracked")
	}
}

// TestSanitizerBoundaries pins where the server's sanitizer draws its
// lines, with the thresholds written out as numbers rather than read
// back from the constants: an outlier is a norm beyond mean + 8σ of the
// envelope AND beyond 2·mean, and a client is quarantined at its third
// outlier, not its second. Each probe gets a freshly warmed envelope, so
// an accepted probe cannot shift the next one's threshold.
func TestSanitizerBoundaries(t *testing.T) {
	dep := buildDeployment(t, 1, "fifo")
	warmed := func(lo, hi float64) *sanitizer {
		t.Helper()
		srv, err := NewServer(dep.Server, Config{Sanitize: true})
		if err != nil {
			t.Fatal(err)
		}
		// Four of each: the envelope's mean is (lo+hi)/2 and its
		// population std (hi-lo)/2, exactly.
		for i := 0; i < 8; i++ {
			norm := lo
			if i%2 == 1 {
				norm = hi
			}
			if v, _, why := srv.san.check(i, normPayload(norm)); v != sanitizeOK {
				t.Fatalf("warmup norm %v: verdict=%v (%s)", norm, v, why)
			}
		}
		return srv.san
	}
	const probe = 99 // a client id the warmup never used

	// High variance: mean 10, σ 9. mean + 8σ = 82 is the binding line,
	// well past 2·mean = 20.
	if v, _, why := warmed(1, 19).check(probe, normPayload(81.9)); v != sanitizeOK {
		t.Errorf("norm 81.9 just inside mean+8σ = 82: verdict=%v (%s), want accepted", v, why)
	}
	if v, _, _ := warmed(1, 19).check(probe, normPayload(82.1)); v != sanitizeReject {
		t.Errorf("norm 82.1 just outside mean+8σ = 82: verdict=%v, want rejected", v)
	}

	// Low variance: mean 10, σ 1. mean + 8σ = 18 but 2·mean = 20, so a
	// norm between them is benign drift, not an outlier.
	if v, _, why := warmed(9, 11).check(probe, normPayload(19)); v != sanitizeOK {
		t.Errorf("norm 19 between mean+8σ = 18 and 2·mean = 20: verdict=%v (%s), want accepted", v, why)
	}
	if v, _, _ := warmed(9, 11).check(probe, normPayload(20.1)); v != sanitizeReject {
		t.Errorf("norm 20.1 past both lines: verdict=%v, want rejected", v)
	}

	// Escalation: rejected at the first and second outlier, quarantined
	// at the third.
	z := warmed(1, 19)
	for i, want := range []sanitizeVerdict{sanitizeReject, sanitizeReject, sanitizeQuarantine} {
		if v, score, _ := z.check(probe, normPayload(1000)); v != want || score != float64(i+1) {
			t.Fatalf("outlier %d: verdict=%v suspicion=%v, want %v at %d", i+1, v, score, want, i+1)
		}
	}
}

// TestCheckpointSkipsNonFiniteWeights: the sink never sees NaN weights.
// A server whose model went non-finite skips its checkpoint, says why in
// the snapshot, and leaves the last good checkpoint on disk untouched —
// so a restart restores finite weights instead of the poison.
func TestCheckpointSkipsNonFiniteWeights(t *testing.T) {
	path := t.TempDir() + "/server.ckpt"
	file := FileCheckpointer(path)
	var mu sync.Mutex
	writes := 0
	sink := func(srv *core.Server) error {
		mu.Lock()
		writes++
		mu.Unlock()
		return file(srv)
	}
	run := func(dep *core.Deployment) Snapshot {
		t.Helper()
		srv, err := NewServer(dep.Server, Config{Checkpoint: sink})
		if err != nil {
			t.Fatal(err)
		}
		if err := srv.Start(context.Background()); err != nil {
			t.Fatal(err)
		}
		// Shutdown writes the final checkpoint after the worker exits.
		if err := srv.Shutdown(context.Background()); err != nil {
			t.Fatal(err)
		}
		return srv.Snapshot()
	}

	dep := buildDeployment(t, 1, "fifo")
	if snap := run(dep); snap.Checkpoints != 1 || snap.CheckpointErr != "" {
		t.Fatalf("healthy server: %d checkpoints, err %q; want 1 and none", snap.Checkpoints, snap.CheckpointErr)
	}
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	dep.Server.Stack.Params()[0].Value.Data()[0] = math.NaN()
	snap := run(dep)
	mu.Lock()
	if writes != 1 {
		t.Errorf("sink called %d times, want only the healthy server's write", writes)
	}
	mu.Unlock()
	if snap.Checkpoints != 0 || !strings.Contains(snap.CheckpointErr, "non-finite") {
		t.Errorf("poisoned server: %d checkpoints, err %q; want 0 and a non-finite error",
			snap.Checkpoints, snap.CheckpointErr)
	}
	if now, err := os.ReadFile(path); err != nil || !bytes.Equal(now, good) {
		t.Fatalf("the last good checkpoint changed (err %v)", err)
	}
	if _, err := os.Stat(path + ".g2"); !os.IsNotExist(err) {
		t.Fatalf("a second generation appeared: %v", err)
	}
}

// TestHostileFleetChaos is the integrity acceptance gate: 8 clients on
// the wire-framed pipe transport with checksummed framing, a corrupting
// network in both directions, one client uploading NaN from its first
// batch and one turning into a norm-bomb mid-run. The defense must
// compose: corrupted frames are detected and resent (never trained on),
// both hostile clients end quarantined, every healthy client still
// trains its exact budget, and the converged loss stays within ±10% of
// the fault-free simulation of the healthy clients.
func TestHostileFleetChaos(t *testing.T) {
	const (
		clients    = 8
		steps      = 12
		nanClient  = 6
		bombClient = 7
	)
	// The reference is the fault-free simulation of the clients that
	// end up training: the same deployment without the two hostile ones,
	// whose batches the model must never see. (Measured against the
	// whole fleet's simulation the gap sat at 3–11 %, most of it the two
	// missing clients, and crossed the band in about one run in fifteen.)
	healthy := chaosDeployment(t, clients)
	healthy.Clients = healthy.Clients[:nanClient]
	reference := faultFreeLossOf(t, healthy, steps)
	dep := chaosDeployment(t, clients)
	reg := obs.NewRegistry()

	res, err := Run(context.Background(), dep, RunnerConfig{
		StepsPerClient: steps,
		Transport:      TransportPipe,
		GradTimeout:    30 * time.Second,
		Checksum:       true,
		Cluster: Config{
			Sanitize: true,
			Obs:      reg,
		},
		// A corrupting network on both directions of the first four
		// clients' paths: gradients flipped on the way down, activations
		// flipped on the way up (the server-side carrier corrupts its
		// receives).
		Faults: func(i int) simnet.FaultSchedule {
			if i >= 4 {
				return nil
			}
			return simnet.NewFaults(simnet.FaultPlan{Seed: uint64(100 + i), CorruptEveryRecvs: 5})
		},
		ServerFaults: func(i int) simnet.FaultSchedule {
			if i >= 4 {
				return nil
			}
			return simnet.NewFaults(simnet.FaultPlan{Seed: uint64(200 + i), CorruptEveryRecvs: 6})
		},
		WrapClient: func(i int, conn transport.Conn) transport.Conn {
			switch i {
			case nanClient:
				// Broken from the start: every upload is NaN.
				return transport.NewHostileCarrier(conn, transport.PoisonNaN, 0, 0)
			case bombClient:
				// Degrades mid-run, after the fleet envelope warmed up on
				// its honest traffic.
				return transport.NewHostileCarrier(conn, transport.PoisonScale, 4, 1e6)
			}
			return conn
		},
	})
	// The hostile clients' sessions end in quarantine, so the run as a
	// whole reports an error — that error must be the quarantine, not a
	// hung queue or a poisoned model.
	if err == nil {
		t.Fatal("hostile fleet run reported no error — quarantine never fired")
	}
	if !strings.Contains(err.Error(), "quarantined") {
		t.Fatalf("run error is not the quarantine: %v", err)
	}
	if res == nil {
		t.Fatal("no result alongside the expected quarantine error")
	}

	if res.Snapshot.Quarantined != 2 {
		t.Fatalf("quarantined %d clients, want exactly the 2 hostile ones", res.Snapshot.Quarantined)
	}
	if got := reg.Counter("stsl_quarantined_total", nil).Value(); got != 2 {
		t.Errorf("stsl_quarantined_total = %d, want 2", got)
	}
	if res.Snapshot.CorruptFrames == 0 {
		t.Error("server detected no corrupt frames despite a corrupting network")
	}
	if got := reg.Counter("stsl_corrupt_frames_total", nil).Value(); got == 0 {
		t.Error("stsl_corrupt_frames_total = 0, want > 0")
	}
	if res.CorruptFrames == 0 {
		t.Error("clients detected no corrupt frames despite corrupted gradients")
	}

	// Exactly-once for every healthy client: detected corruption was
	// recovered by resend + dedup, not skipped and not double-trained.
	for i := 0; i < clients; i++ {
		if i == nanClient || i == bombClient {
			continue
		}
		if res.StepsPerClient[i] != steps {
			t.Errorf("healthy client %d trained %d steps, want exactly %d", i, res.StepsPerClient[i], steps)
		}
	}
	if res.StepsPerClient[nanClient] != 0 {
		t.Errorf("NaN client trained %d steps — poison reached the model", res.StepsPerClient[nanClient])
	}

	if res.FinalLoss <= 0 {
		t.Fatalf("degenerate loss %v", res.FinalLoss)
	}
	gap := math.Abs(res.FinalLoss-reference) / reference
	t.Logf("loss: fault-free sim %.4f, hostile fleet %.4f (gap %.1f%%); corrupt frames server=%d client=%d",
		reference, res.FinalLoss, gap*100, res.Snapshot.CorruptFrames, res.CorruptFrames)
	if gap > 0.10 {
		t.Fatalf("hostile-fleet loss %.4f deviates %.1f%% from fault-free %.4f (tolerance 10%%)",
			res.FinalLoss, gap*100, reference)
	}
}
