package cluster

import (
	"context"
	"errors"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"github.com/stsl/stsl/internal/core"
	"github.com/stsl/stsl/internal/obs"
	"github.com/stsl/stsl/internal/overload"
	"github.com/stsl/stsl/internal/transport"
)

// The knob census (ROADMAP item 4): every field of Config and
// ClientConfig either tunes behaviour — then a test of this package sets
// it to a non-default value and asserts what that value buys — or wires
// the runtime to its surroundings. The witnesses are function values, so
// renaming or deleting one fails to compile; a field in neither table
// fails TestKnobCensus by name. DESIGN.md §3.7 carries the same table.
var (
	serverKnobs = map[string]func(*testing.T){
		"QueueCap":         TestBackpressurePark,
		"StragglerTimeout": TestStragglerDropped,
		"BatchCoalesce":    TestBatchCoalesceStacksQueuedItems,
		"ResumeGrace":      TestGraceExpiryEvicts,
		"CheckpointEvery":  TestCheckpointEveryPacesTheSink,
		"MaxSessions":      TestRefusalWithoutDialIsTyped,
		"WorkDeadline":     TestDeadlineShedRollsBackAndReports,
		"SendTimeout":      TestStalledReaderEvicted,
		"Checksum":         TestHostileFleetChaos,
		"Sanitize":         TestHostileFleetChaos,
	}
	serverWiring = map[string]string{
		"Workers":    "only 0 or 1 (TestWorkersOnlyOne): the pool it sized was removed; kept until the benchmark stops setting it",
		"Checkpoint": "the sink the state is written to; CheckpointEvery is the knob",
		"Now":        "clock injection",
		"Obs":        "telemetry registry",
		"Tracer":     "trace ring",
	}
	clientKnobs = map[string]func(*testing.T){
		"GradTimeout":      TestGradTimeoutBoundsTheWait,
		"MaxReconnects":    TestMaxReconnectsBoundsRedials,
		"ReconnectBackoff": TestRefusalRetryTraceFollowsSeedAndFloor,
		"BackoffSeed":      TestRefusalRetryTraceFollowsSeedAndFloor,
	}
	clientWiring = map[string]string{
		"Steps":   "the workload: how many batches to contribute",
		"Dial":    "how to reach the server again; MaxReconnects is the knob",
		"Now":     "clock injection",
		"GradRTT": "telemetry histogram",
	}
)

func TestKnobCensus(t *testing.T) {
	for _, c := range []struct {
		typ    reflect.Type
		knobs  map[string]func(*testing.T)
		wiring map[string]string
	}{
		{reflect.TypeOf(Config{}), serverKnobs, serverWiring},
		{reflect.TypeOf(ClientConfig{}), clientKnobs, clientWiring},
	} {
		fields := map[string]bool{}
		var unlisted []string
		for i := 0; i < c.typ.NumField(); i++ {
			name := c.typ.Field(i).Name
			fields[name] = true
			_, knob := c.knobs[name]
			_, wired := c.wiring[name]
			if knob == wired {
				unlisted = append(unlisted, name)
			}
		}
		if len(unlisted) > 0 {
			t.Errorf("%v: fields that need exactly one of a witness test (it sets the field to a non-default value and asserts the difference) or a wiring reason: %v",
				c.typ, unlisted)
		}
		var stale []string
		for name := range c.knobs {
			if !fields[name] {
				stale = append(stale, name)
			}
		}
		for name := range c.wiring {
			if !fields[name] {
				stale = append(stale, name)
			}
		}
		sort.Strings(stale)
		if len(stale) > 0 {
			t.Errorf("%v: census entries that name no field: %v", c.typ, stale)
		}
	}
}

// TestBatchCoalesceStacksQueuedItems: three activations queued behind a
// held worker are one stacked model pass at BatchCoalesce 3 and three
// serial passes at the default.
func TestBatchCoalesceStacksQueuedItems(t *testing.T) {
	for _, tc := range []struct{ coalesce, passes int }{{0, 3}, {3, 1}} {
		reg := obs.NewRegistry()
		srv, release, awaitGradients := heldServer(t, 3, Config{BatchCoalesce: tc.coalesce, Obs: reg})
		waitFor(t, func() bool { return srv.Snapshot().QueueDepth == 3 })
		release()
		awaitGradients()
		passes := reg.Histogram("stsl_worker_process_seconds", nil).Count()
		if int(passes) != tc.passes || srv.Snapshot().ServerSteps != 3 {
			t.Errorf("BatchCoalesce %d: %d model passes for %d served items, want %d passes for 3",
				tc.coalesce, passes, srv.Snapshot().ServerSteps, tc.passes)
		}
	}
}

// TestWorkersOnlyOne: one worker owns the model. Workers 0 and 1 both
// mean that; anything else is refused with an error that says the pool
// is gone.
func TestWorkersOnlyOne(t *testing.T) {
	for _, w := range []int{0, 1} {
		if _, err := NewServer(buildDeployment(t, 1, "fifo").Server, Config{Workers: w}); err != nil {
			t.Errorf("Workers %d: %v", w, err)
		}
	}
	for _, w := range []int{-1, 2, 4} {
		_, err := NewServer(buildDeployment(t, 1, "fifo").Server, Config{Workers: w})
		if err == nil || !strings.Contains(err.Error(), "worker pool was removed") {
			t.Errorf("Workers %d: err = %v, want the pool-removed error", w, err)
		}
	}
}

// TestCheckpointEveryPacesTheSink: a single worker serving 6 steps calls
// the sink every 2 steps plus once at exit at CheckpointEvery 2, and
// only at exit at the default.
func TestCheckpointEveryPacesTheSink(t *testing.T) {
	for _, tc := range []struct{ every, writes int }{{0, 1}, {2, 4}} {
		res, err := Run(context.Background(), buildDeployment(t, 1, "fifo"), RunnerConfig{
			StepsPerClient: 6,
			GradTimeout:    20 * time.Second,
			Cluster: Config{
				CheckpointEvery: tc.every,
				Checkpoint:      func(*core.Server) error { return nil },
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Snapshot.Checkpoints != tc.writes {
			t.Errorf("CheckpointEvery %d over 6 steps: %d checkpoints, want %d",
				tc.every, res.Snapshot.Checkpoints, tc.writes)
		}
	}
}

// scriptedServer plays the server's half of the handshake on an
// in-memory connection — read the join, send the welcome — and hands
// the connection to script.
func scriptedServer(script func(peer transport.Conn)) transport.Conn {
	client, peer := transport.NewPair(1)
	go func() {
		defer peer.Close()
		if _, err := peer.Recv(); err != nil {
			return
		}
		if peer.Send(&transport.Message{Type: transport.MsgControl, Note: core.WelcomeNote, Seq: 1}) != nil {
			return
		}
		script(peer)
	}()
	return client
}

// TestGradTimeoutBoundsTheWait: against a server that welcomes and then
// never answers, the default waits forever; a GradTimeout ends the run
// with a timeout error.
func TestGradTimeoutBoundsTheWait(t *testing.T) {
	dep := buildDeployment(t, 1, "fifo")
	silent := make(chan struct{})
	defer close(silent)
	conn := scriptedServer(func(transport.Conn) { <-silent })
	defer conn.Close()
	_, err := RunClient(context.Background(), dep.Clients[0], conn, ClientConfig{
		Steps: 1, GradTimeout: 50 * time.Millisecond,
	})
	if !errors.Is(err, errAwaitTimeout) || !strings.Contains(err.Error(), "timed out after 50ms") {
		t.Fatalf("silent server: %v, want the 50ms gradient timeout", err)
	}
}

// TestMaxReconnectsBoundsRedials: a client whose server hangs up and
// whose every redial fails gives up after MaxReconnects attempts, not
// the default 8.
func TestMaxReconnectsBoundsRedials(t *testing.T) {
	dep := buildDeployment(t, 1, "fifo")
	conn := scriptedServer(func(peer transport.Conn) { _, _ = peer.Recv() }) // hang up on the first activation
	defer conn.Close()
	dials := 0
	res, err := RunClient(context.Background(), dep.Clients[0], conn, ClientConfig{
		Steps: 1, GradTimeout: 5 * time.Second,
		Dial: func() (transport.Conn, error) {
			dials++
			return nil, errors.New("no route")
		},
		MaxReconnects: 3, ReconnectBackoff: time.Millisecond,
	})
	if err == nil || !strings.Contains(err.Error(), "gave up after 3 reconnect attempts") {
		t.Fatalf("unreachable server: %v, want the client to give up after 3 attempts", err)
	}
	if dials != 3 || res.Reconnects != 3 {
		t.Fatalf("%d dials, %d counted reconnects, want 3 and 3", dials, res.Reconnects)
	}
}

// TestRefusalRetryTraceFollowsSeedAndFloor: a client refused at the
// session cap waits out the server's hint plus a decorrelated-jitter
// draw before each rejoin. With BackoffSeed fixed the draws are the
// seeded sequence, each at least ReconnectBackoff — so consecutive join
// attempts are spaced by at least hint + that draw (the defaults, a 5ms
// floor and a wall-clock seed, would rejoin several times sooner).
func TestRefusalRetryTraceFollowsSeedAndFloor(t *testing.T) {
	const (
		floor = 20 * time.Millisecond
		seed  = 26
	)
	dep := buildDeployment(t, 2, "fifo")
	srv := startServer(t, dep, Config{MaxSessions: 1})
	holder := rawJoin(t, srv, 0)
	defer holder.Close()

	dial := func() (transport.Conn, error) {
		client, server := transport.NewPair(1)
		srv.Attach(server)
		return client, nil
	}
	type outcome struct {
		res *ClientResult
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		conn, _ := dial()
		res, err := RunClient(context.Background(), dep.Clients[1], conn, ClientConfig{
			Steps: 1, GradTimeout: 5 * time.Second, Dial: dial,
			ReconnectBackoff: floor, BackoffSeed: seed,
		})
		done <- outcome{res, err}
	}()
	waitFor(t, func() bool { return srv.Snapshot().Refused >= 2 })
	holder.Close() // frees the slot; the next rejoin is admitted
	o := <-done
	if o.err != nil {
		t.Fatal(o.err)
	}
	if o.res.Refused < 2 || len(o.res.JoinAttempts) != o.res.Refused+1 {
		t.Fatalf("%d refusals over %d join attempts, want at least 2 refusals and one attempt more",
			o.res.Refused, len(o.res.JoinAttempts))
	}
	jitter := overload.NewBackoff(floor, seed)
	for k := 0; k < o.res.Refused; k++ {
		gap := o.res.JoinAttempts[k+1] - o.res.JoinAttempts[k]
		if want := retryAfterFloor + jitter.Next(); gap < want {
			t.Errorf("rejoin %d came %v after the refused attempt, want at least hint + seeded draw = %v", k+1, gap, want)
		}
	}
}
