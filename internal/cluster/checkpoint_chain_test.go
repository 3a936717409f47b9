package cluster

import (
	"context"
	"errors"
	"os"
	"testing"

	"github.com/stsl/stsl/internal/core"
)

// trainedDeployment builds a 1-client deployment and trains it for the
// given number of steps, so checkpoints carry distinguishable state.
func trainedDeployment(t *testing.T, steps int) *core.Deployment {
	t.Helper()
	dep := buildDeployment(t, 1, "fifo")
	res, err := Run(context.Background(), dep, RunnerConfig{StepsPerClient: steps})
	if err != nil {
		t.Fatal(err)
	}
	if res.ServerSteps != steps {
		t.Fatalf("trained %d steps, want %d", res.ServerSteps, steps)
	}
	return dep
}

// flipByte flips one bit in the middle of the file's payload — the
// bit-rot a checksum chain exists to catch.
func flipByte(t *testing.T, path string) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x20
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
}

// truncateFile tears the file mid-payload, as a crash mid-write would.
func truncateFile(t *testing.T, path string) {
	t.Helper()
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, info.Size()/2); err != nil {
		t.Fatal(err)
	}
}

// TestCheckpointChainBitFlipFallback: when the latest checkpoint (stable
// path and its generation file) is bit-flipped, RestoreFromFile rejects
// it on checksum and falls back to the previous verified generation —
// one checkpoint interval of progress lost, not the run.
func TestCheckpointChainBitFlipFallback(t *testing.T) {
	path := t.TempDir() + "/server.ckpt"
	sink := GenerationalCheckpointer(path, 3)
	depA := trainedDeployment(t, 3)
	if err := sink(depA.Server); err != nil { // g1, steps=3
		t.Fatal(err)
	}
	depB := trainedDeployment(t, 6)
	if err := sink(depB.Server); err != nil { // g2, steps=6
		t.Fatal(err)
	}

	flipByte(t, path)
	flipByte(t, path+".g2")

	dep := buildDeployment(t, 1, "fifo")
	steps, restored, err := RestoreFromFile(path, dep.Server)
	if err != nil || !restored {
		t.Fatalf("restore: restored=%v err=%v", restored, err)
	}
	if steps != 3 {
		t.Fatalf("restored %d steps, want 3 (the previous verified generation)", steps)
	}
}

// TestCheckpointChainTornFallback: a checkpoint torn mid-write is just
// as detectable as a bit flip — the fallback scan skips it.
func TestCheckpointChainTornFallback(t *testing.T) {
	path := t.TempDir() + "/server.ckpt"
	sink := GenerationalCheckpointer(path, 3)
	depA := trainedDeployment(t, 3)
	if err := sink(depA.Server); err != nil {
		t.Fatal(err)
	}
	depB := trainedDeployment(t, 6)
	if err := sink(depB.Server); err != nil {
		t.Fatal(err)
	}

	truncateFile(t, path)
	truncateFile(t, path+".g2")

	dep := buildDeployment(t, 1, "fifo")
	steps, restored, err := RestoreFromFile(path, dep.Server)
	if err != nil || !restored {
		t.Fatalf("restore: restored=%v err=%v", restored, err)
	}
	if steps != 3 {
		t.Fatalf("restored %d steps, want 3", steps)
	}
}

// TestCheckpointChainAllCorrupt: files present but none verifiable is an
// error — a corrupted checkpoint must never silently become a fresh
// start. An empty directory, by contrast, IS a fresh start: (0, false,
// nil) so first boots can pass -resume unconditionally.
func TestCheckpointChainAllCorrupt(t *testing.T) {
	path := t.TempDir() + "/server.ckpt"
	dep := buildDeployment(t, 1, "fifo")
	if steps, restored, err := RestoreFromFile(path, dep.Server); steps != 0 || restored || err != nil {
		t.Fatalf("empty dir: (%d, %v, %v), want (0, false, nil)", steps, restored, err)
	}

	depA := trainedDeployment(t, 3)
	if err := GenerationalCheckpointer(path, 3)(depA.Server); err != nil {
		t.Fatal(err)
	}
	flipByte(t, path)
	flipByte(t, path+".g1")

	_, restored, err := RestoreFromFile(path, dep.Server)
	if err == nil || restored {
		t.Fatalf("all-corrupt restore: restored=%v err=%v, want an error", restored, err)
	}
	if !errors.Is(err, core.ErrCheckpointCorrupt) {
		t.Fatalf("err = %v, want ErrCheckpointCorrupt in the chain", err)
	}
}

// TestCheckpointChainRetention: only the last keep generations survive,
// the stable path always names the newest, and a process restart
// continues the generation chain from what is on disk instead of
// overwriting generation 1.
func TestCheckpointChainRetention(t *testing.T) {
	path := t.TempDir() + "/server.ckpt"
	sink := GenerationalCheckpointer(path, 3)
	dep := trainedDeployment(t, 3)
	for i := 0; i < 5; i++ {
		if err := sink(dep.Server); err != nil {
			t.Fatal(err)
		}
	}
	for _, g := range []string{".g1", ".g2"} {
		if _, err := os.Stat(path + g); !os.IsNotExist(err) {
			t.Errorf("generation %s not pruned (keep=3)", g)
		}
	}
	for _, g := range []string{"", ".g3", ".g4", ".g5"} {
		if _, err := os.Stat(path + g); err != nil {
			t.Errorf("expected %q on disk: %v", path+g, err)
		}
	}

	// A fresh checkpointer (restarted server) picks up at g6.
	if err := GenerationalCheckpointer(path, 3)(dep.Server); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path + ".g6"); err != nil {
		t.Fatalf("restarted chain did not continue at g6: %v", err)
	}
}

// TestCheckpointChainMissingParent: a generation whose parent was pruned
// (or lost) still verifies and restores — integrity is per-file; the
// parent pointer is provenance, not a restore dependency.
func TestCheckpointChainMissingParent(t *testing.T) {
	path := t.TempDir() + "/server.ckpt"
	sink := GenerationalCheckpointer(path, 3)
	depA := trainedDeployment(t, 3)
	depB := trainedDeployment(t, 6)
	for i := 0; i < 4; i++ { // g1..g4; keep=3 prunes g1, so g2's parent is gone
		srv := depA.Server
		if i >= 2 {
			srv = depB.Server
		}
		if err := sink(srv); err != nil {
			t.Fatal(err)
		}
	}
	// Corrupt everything newer than g2: the scan must fall all the way
	// back to the generation whose parent no longer exists.
	flipByte(t, path)
	flipByte(t, path+".g4")
	flipByte(t, path+".g3")

	dep := buildDeployment(t, 1, "fifo")
	steps, restored, err := RestoreFromFile(path, dep.Server)
	if err != nil || !restored {
		t.Fatalf("restore: restored=%v err=%v", restored, err)
	}
	if steps != 3 {
		t.Fatalf("restored %d steps, want 3 (g2, written before the switch)", steps)
	}
}
