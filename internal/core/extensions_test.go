package core

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"strings"
	"testing"
	"time"

	"github.com/stsl/stsl/internal/data"
	"github.com/stsl/stsl/internal/mathx"
	"github.com/stsl/stsl/internal/simnet"
)

// TestLoadStateOneFormat: the CRC'd single-stack header is the only
// server state LoadState reads. It round-trips exactly; a stream that
// opens with any retired header — even one followed by perfectly good
// weights and a matching CRC — is refused as unrecognised, with the
// weights and step counter left as they were.
func TestLoadStateOneFormat(t *testing.T) {
	ds := smallData(t, 32, 43)
	mk := func(seed uint64) *Server {
		dep, err := NewDeployment(Config{
			Model: smallModel(), Cut: 1, Clients: 1, Seed: seed, BatchSize: 8, LR: 0.05,
		}, []*data.Dataset{ds})
		if err != nil {
			t.Fatal(err)
		}
		return dep.Server
	}
	weights := func(s *Server) []byte {
		var b bytes.Buffer
		if err := s.Stack.SaveWeights(&b); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	src, dst := mk(7), mk(99)
	src.steps = 5
	before := weights(dst)

	w := weights(src)
	pool2 := fmt.Sprintf("POOL2 workers=1 steps=5 gen=0 parent=0 len=%d crc=%08x",
		len(w), crc32.Checksum(w, ckptCRCTable))
	for _, retired := range []string{"SRV1 steps=5", "POOL1 workers=1 steps=5", pool2} {
		file := append([]byte("STSL"+retired+"\n"), w...)
		err := dst.LoadState(bytes.NewReader(file))
		if err == nil || !strings.Contains(err.Error(), "unrecognised server state header") {
			t.Fatalf("%q: err = %v, want the unrecognised-header error", retired, err)
		}
		if !bytes.Equal(weights(dst), before) || dst.Steps() != 0 {
			t.Fatalf("%q: a refused checkpoint touched the server", retired)
		}
	}

	var ckpt bytes.Buffer
	if err := src.SaveState(&ckpt, 0, 0); err != nil {
		t.Fatal(err)
	}
	if err := dst.LoadState(&ckpt); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(weights(dst), weights(src)) || dst.Steps() != 5 {
		t.Fatal("the checkpoint did not restore its weights and step counter exactly")
	}
}

func TestLossyLinksRetransmit(t *testing.T) {
	ds := smallData(t, 64, 53)
	dep, err := NewDeployment(Config{
		Model: smallModel(), Cut: 1, Clients: 1, Seed: 5, BatchSize: 8, LR: 0.05,
	}, []*data.Dataset{ds})
	if err != nil {
		t.Fatal(err)
	}
	path, err := simnet.NewSymmetricPath(simnet.Constant{D: time.Millisecond}, 0, mathx.NewRNG(9))
	if err != nil {
		t.Fatal(err)
	}
	path.Up.DropProb = 0.3
	path.Down.DropProb = 0.3
	sim, err := NewSimulation(dep, SimConfig{
		Paths:             []*simnet.Path{path},
		MaxStepsPerClient: 20,
		RetransmitTimeout: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	// All steps complete despite loss.
	if res.ServerSteps != 20 {
		t.Fatalf("server steps = %d", res.ServerSteps)
	}
	if res.Retransmits == 0 {
		t.Fatal("30% loss produced no retransmissions")
	}
	// Retransmissions cost virtual time vs a clean link.
	clean, err := NewDeployment(Config{
		Model: smallModel(), Cut: 1, Clients: 1, Seed: 5, BatchSize: 8, LR: 0.05,
	}, []*data.Dataset{ds})
	if err != nil {
		t.Fatal(err)
	}
	simClean, err := NewSimulation(clean, SimConfig{
		Paths:             constPaths(1, time.Millisecond),
		MaxStepsPerClient: 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	resClean, err := simClean.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.VirtualDuration <= resClean.VirtualDuration {
		t.Fatalf("lossy run (%v) not slower than clean run (%v)",
			res.VirtualDuration, resClean.VirtualDuration)
	}
}

func TestLossyLinkTotalLossErrors(t *testing.T) {
	ds := smallData(t, 32, 59)
	dep, err := NewDeployment(Config{
		Model: smallModel(), Cut: 1, Clients: 1, Seed: 5, BatchSize: 8, LR: 0.05,
	}, []*data.Dataset{ds})
	if err != nil {
		t.Fatal(err)
	}
	path, err := simnet.NewSymmetricPath(simnet.Constant{D: time.Millisecond}, 0, mathx.NewRNG(9))
	if err != nil {
		t.Fatal(err)
	}
	path.Up.DropProb = 1.0 // black hole
	sim, err := NewSimulation(dep, SimConfig{
		Paths:             []*simnet.Path{path},
		MaxStepsPerClient: 2,
		RetransmitTimeout: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(); err == nil {
		t.Fatal("100% loss did not surface an error")
	}
}

func TestSimulationTrace(t *testing.T) {
	ds := smallData(t, 64, 61)
	shards, err := data.PartitionIID(ds, 2, mathx.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	dep, err := NewDeployment(Config{
		Model: smallModel(), Cut: 1, Clients: 2, Seed: 5, BatchSize: 8, LR: 0.05,
	}, shards)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := NewSimulation(dep, SimConfig{
		Paths:             constPaths(2, time.Millisecond),
		MaxStepsPerClient: 3,
		Trace:             true,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	// 2 clients × 3 steps × 3 events each.
	if len(res.Trace) != 18 {
		t.Fatalf("trace has %d events, want 18", len(res.Trace))
	}
	// Trace is time-ordered.
	for i := 1; i < len(res.Trace); i++ {
		if res.Trace[i].At < res.Trace[i-1].At {
			t.Fatal("trace not time-ordered")
		}
	}
	kinds := map[string]int{}
	for _, ev := range res.Trace {
		kinds[ev.Kind]++
	}
	if kinds["activation-arrive"] != 6 || kinds["server-done"] != 6 || kinds["gradient-arrive"] != 6 {
		t.Fatalf("trace kinds %v", kinds)
	}
}
