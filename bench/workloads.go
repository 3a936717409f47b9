package main

import (
	"fmt"
	"time"

	"github.com/stsl/stsl/internal/core"
	"github.com/stsl/stsl/internal/data"
	"github.com/stsl/stsl/internal/expt"
	"github.com/stsl/stsl/internal/mathx"
)

// residentImages is the size of the end-system's dataset. It is part of
// every workload's definition: the live heap sets the GC pace, and the
// GC pace moves steps/s (128 → 2048 images changed GC cycles per 600
// steps from 950 to 257 on the sizing host).
const residentImages = 1024

// smokeImages is the dataset size of a smoke run.
const smokeImages = 64

// workload is one set of inputs the benchmark runs. The closed-loop
// workloads drive exactly one end-system and the open-loop one caps
// sessions in flight at two: on a 2-CPU host a second closed-loop client
// plus the server worker oversubscribe the CPUs and the run measures the
// scheduler (16 % range against 5.5 % for one client).
type workload struct {
	Name string
	Why  string
	// Scale supplies the model, batch size and learning rate.
	Scale expt.Scale
	Cut   int
	DType string
	// Checksum turns on CRC32C-checksummed frames in both directions.
	Checksum bool
	// Images is the number of resident images.
	Images int
	// Smoke marks a shrunken workload whose numbers mean nothing.
	Smoke bool

	// Closed loop: one end-system trains Warm steps that are not timed,
	// then Timed steps that are.
	Warm, Timed int

	// Open loop (Rate > 0): Sessions arrivals spread Poisson-wise over
	// Horizon, each a fresh end-system that joins, trains SessionSteps
	// and leaves; at most MaxInFlight run at once. WarmSessions run
	// sequentially first and are not timed.
	Rate         float64
	Horizon      time.Duration
	SessionSteps int
	MaxInFlight  int
	WarmSessions int

	// StagedSteps is the length of the staged per-layer replay.
	StagedSteps int
}

func (w workload) open() bool { return w.Rate > 0 }

// sessions is how many arrivals an open-loop round schedules. It is the
// nominal count Rate × Horizon, not the seed's Poisson draw, so that
// every seed offers the same load (see arrivals in openloop.go).
func (w workload) sessions() int { return int(w.Rate * w.Horizon.Seconds()) }

// workloads returns the four workloads in their canonical order. smoke
// shrinks every count so the whole path runs in-process in about a
// second; smoke numbers mean nothing.
func workloads(smoke bool) []workload {
	small, tiny := expt.SmallScale(), expt.TinyScale()
	ws := []workload{
		{
			Name:  "train-cut1",
			Why:   "paper's default split: the server stack does half of every step and 512 KB crosses the wire per step, so server-side nn/tensor/core gains show in step RTT and steps/s",
			Scale: small, Cut: 1, Warm: 40, Timed: 150, StagedSteps: 100,
		},
		{
			Name:  "train-cut4",
			Why:   "the end-system does about 95 % of the step and 24 KB crosses the wire: client-side compute shows here and not in RTT; server, codec or wire changes must leave this row unchanged",
			Scale: small, Cut: 4, Warm: 40, Timed: 150, StagedSteps: 100,
		},
		{
			Name:  "train-cut1-f32c",
			Why:   "train-cut1 on the alternate path (float32 kernels, TSL2 payloads, CRC32C trailers): a gain for the default path that costs this one shows as a split between the two rows",
			Scale: small, Cut: 1, DType: "float32", Checksum: true, Warm: 40, Timed: 150, StagedSteps: 100,
		},
		{
			Name:  "churn-open",
			Why:   "open loop of 2-step sessions at about 30 % of capacity: join/leave, session table, admission, queue and dial/accept dominate, and per-session retention shows in peak RSS",
			Scale: tiny, Cut: 1,
			Rate: 150, Horizon: 3 * time.Second, SessionSteps: 2, MaxInFlight: 2, WarmSessions: 400,
			StagedSteps: 100,
		},
	}
	for i := range ws {
		ws[i].Images = residentImages
	}
	if smoke {
		for i := range ws {
			w := &ws[i]
			w.Smoke, w.Images, w.StagedSteps = true, smokeImages, 3
			if w.open() {
				w.Rate, w.Horizon, w.WarmSessions = 100, 60*time.Millisecond, 2
			} else {
				w.Warm, w.Timed = 1, 3
			}
		}
	}
	return ws
}

func workloadByName(name string, smoke bool) (workload, error) {
	for _, w := range workloads(smoke) {
		if w.Name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// generate renders the workload's dataset from the seed: normalised,
// one IID shard holding every image. It is input preparation and is
// timed apart from set-up (data.generate_s).
func (w workload) generate(seed uint64) (*data.Dataset, error) {
	m := w.Scale.Model
	gen := data.SynthCIFAR{Height: m.Height, Width: m.Width, Classes: m.Classes}
	ds, err := gen.Generate(w.Images, seed)
	if err != nil {
		return nil, err
	}
	ds.Normalize()
	shards, err := data.PartitionIID(ds, 1, mathx.NewRNG(seed+1))
	if err != nil {
		return nil, err
	}
	return shards[0], nil
}

// deploy builds the deployment with clients end-systems, all reading the
// same shard (each through its own seeded batcher).
func (w workload) deploy(seed uint64, shard *data.Dataset, clients int) (*core.Deployment, error) {
	shards := make([]*data.Dataset, clients)
	for i := range shards {
		shards[i] = shard
	}
	return core.NewDeployment(core.Config{
		Model: w.Scale.Model, Cut: w.Cut, Clients: clients, Seed: seed,
		BatchSize: w.Scale.BatchSize, LR: w.Scale.LR,
		QueuePolicy: "fifo", BatchCoalesce: 1, DType: w.DType,
	}, shards)
}
