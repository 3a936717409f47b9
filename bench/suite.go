package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"text/tabwriter"
	"time"
)

// suiteRounds is R: how many untraced rounds of every workload the suite
// takes. Single rounds wander by 11–39 % on the sizing host; the median
// of five rounds interleaved across workloads repeats within 2–5 %.
// driverRounds is the floor of a driver run, whose budget decides the rest.
const (
	suiteRounds  = 5
	driverRounds = 3
)

// maxReruns bounds how often an invalid round is run again before the
// run gives up.
const maxReruns = 3

// roundKind selects what a round process does.
type roundKind string

const (
	kindLive   roundKind = "live"
	kindStaged roundKind = "staged"
)

// roundRunner runs one round of kind and, for a traced round, writes its
// spans to tracePath.
type roundRunner func(kind roundKind, w workload, seed uint64, traced bool, tracePath string) (*roundRecord, error)

// inProcess runs the round in this process: what a round child does, and
// what the smoke pass uses directly.
func inProcess(kind roundKind, w workload, seed uint64, traced bool, tracePath string) (*roundRecord, error) {
	var rec *roundRecord
	var spans []span
	var err error
	switch kind {
	case kindLive:
		rec, spans, err = runRound(w, seed, traced)
	case kindStaged:
		rec, err = runStaged(w, seed)
	default:
		err = fmt.Errorf("unknown round kind %q", kind)
	}
	if err != nil {
		return nil, err
	}
	if tracePath != "" && spans != nil {
		if err := writeTrace(tracePath, spans); err != nil {
			return nil, err
		}
	}
	return rec, nil
}

// childProcess runs the round in a fresh copy of this binary, so that
// peak RSS belongs to the round alone and no GC state leaks from one
// round into the next. The child prints its record as JSON.
func childProcess(kind roundKind, w workload, seed uint64, traced bool, tracePath string) (*roundRecord, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self, "-child", string(kind), "-workload", w.Name,
		"-seed", strconv.FormatUint(seed, 10), "-traced="+strconv.FormatBool(traced), "-trace-out", tracePath)
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s round of %s: %w", kind, w.Name, err)
	}
	var rec roundRecord
	if err := json.Unmarshal(stdout.Bytes(), &rec); err != nil {
		return nil, fmt.Errorf("%s round of %s: bad record: %w", kind, w.Name, err)
	}
	return &rec, nil
}

// validRound runs live rounds until one is valid; a round whose load
// generator ran late is run again, not averaged in.
func validRound(run roundRunner, wr *workloadResult, w workload, seed uint64, traced bool, tracePath string) (*roundRecord, error) {
	for {
		rec, err := run(kindLive, w, seed, traced, tracePath)
		if err != nil {
			return nil, err
		}
		if rec.Invalid == "" {
			return rec, nil
		}
		wr.Rerun++
		fmt.Fprintf(os.Stderr, "bench: %s: round invalid, running it again: %s\n", w.Name, rec.Invalid)
		if wr.Rerun > maxReruns {
			return nil, fmt.Errorf("%s: %d rounds invalid, last: %s", w.Name, wr.Rerun, rec.Invalid)
		}
	}
}

// rotate returns ws starting at index by: round r of the suite runs the
// workloads in an order rotated by r, so that no workload always runs
// first (cold) or always after the same neighbour.
func rotate(ws []workload, by int) []workload {
	out := make([]workload, len(ws))
	for i := range ws {
		out[i] = ws[(i+by)%len(ws)]
	}
	return out
}

// traceFile is where a workload's live spans go.
func traceFile(outDir, name string) string {
	return filepath.Join(outDir, "trace-"+name+".jsonl")
}

// plan says which rounds a run takes. The suite and the acceptance
// driver's single-workload run differ only in their plan.
type plan struct {
	workloads []workload
	// rounds is how many untraced rounds of every workload are taken at
	// least. With a budget, more are taken for as long as another pass
	// over the workloads is expected to end inside it.
	rounds int
	budget time.Duration
	// traced adds, after the untraced rounds, one traced round and the
	// staged replay of every workload; the budget reserves time for them.
	traced bool
	smoke  bool
}

// another reports whether to take pass number done+1 over the workloads,
// elapsed into the run.
func (p plan) another(done int, elapsed time.Duration) bool {
	if done < p.rounds {
		return true
	}
	if p.budget <= 0 || done == 0 {
		return false
	}
	// A traced round and a staged replay each take about as long as an
	// untraced round.
	passes := 1
	if p.traced {
		passes = 3
	}
	return elapsed+time.Duration(passes)*elapsed/time.Duration(done) <= p.budget
}

// runSuite runs the plan: the untraced rounds, interleaved and rotated
// over the workloads, then the traced round and the staged replay of each.
func runSuite(run roundRunner, p plan, seed uint64, outDir string) (*resultFile, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	start := time.Now()
	results := map[string]*workloadResult{}
	res := &resultFile{Schema: resultSchema, Host: hostFacts(), Seed: seed, Smoke: p.smoke,
		EndToEnd: endToEnd, PerLayer: allLayers}
	for _, w := range p.workloads {
		results[w.Name] = &workloadResult{Name: w.Name, Why: w.Why}
		res.Workloads = append(res.Workloads, results[w.Name])
	}
	for r := 0; p.another(r, time.Since(start)); r++ {
		for _, w := range rotate(p.workloads, r) {
			wr := results[w.Name]
			rec, err := validRound(run, wr, w, seed, false, "")
			if err != nil {
				return nil, err
			}
			wr.Rounds = append(wr.Rounds, rec)
			fmt.Fprintf(os.Stderr, "bench: round %d %-16s %8.2f steps/s\n", r+1, w.Name, rec.Metrics["steps_per_s"])
		}
	}
	for _, w := range p.workloads {
		wr := results[w.Name]
		if p.traced {
			live := traceFile(outDir, w.Name)
			rec, err := validRound(run, wr, w, seed, true, live)
			if err != nil {
				return nil, err
			}
			wr.Traced = append(wr.Traced, rec)
			if wr.Staged, err = run(kindStaged, w, seed, false, ""); err != nil {
				return nil, err
			}
			fmt.Fprintf(os.Stderr, "bench: traced %-16s -> %s\n", w.Name, live)
		}
		wr.aggregate(w)
	}
	return res, nil
}

// driverLine is the last line of a driver run's standard output.
type driverLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]driverValue `json:"metrics"`
}

type driverValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// driverResult shapes a workload's result for the driver: the end-to-end
// metrics BENCHMARK.json lists, or with traced the per-layer ones. A
// metric the run did not produce is an error, not an omission.
func driverResult(wr *workloadResult, traced bool) (*driverLine, error) {
	line := &driverLine{Correct: wr.correct(), Metrics: map[string]driverValue{}}
	for _, r := range wr.allRounds() {
		line.Attempted += r.Sessions
		line.Failed += r.Failed
	}
	values := wr.EndToEnd
	if traced {
		values = wr.PerLayer
	}
	for _, spec := range driverMetrics(traced) {
		s, ok := values[spec.Name]
		if !ok {
			return nil, fmt.Errorf("%s: no value for %s", wr.Name, spec.Name)
		}
		line.Metrics[spec.Name] = driverValue{Value: s.Median, Unit: spec.Unit}
	}
	return line, nil
}

// printWorkload prints every metric by name and unit: the median over
// rounds, the quartiles, and the per-round values behind them.
func printWorkload(out io.Writer, wr *workloadResult) {
	fmt.Fprintf(out, "\n== %s — %d rounds, %d traced, %d rerun\n", wr.Name, len(wr.Rounds), len(wr.Traced), wr.Rerun)
	if len(wr.Rounds) > 0 {
		s := wr.Rounds[0].Samples
		fmt.Fprintf(out, "   samples per round: %d step round trips, %d sessions\n", s["step_rtt_ms_p50"], s["session_ms_p50"])
	}
	tw := tabwriter.NewWriter(out, 0, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "metric\tunit\tmedian\tq1\tq3\tiqr/median\tper round")
	row := func(spec metricSpec, s stat) {
		fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%.6g\t%.2f %%\t%s\n",
			spec.Name, spec.Unit, s.Median, s.Q1, s.Q3, 100*s.iqrFrac(), formatValues(s.Values))
	}
	for _, spec := range endToEnd {
		if s, ok := wr.EndToEnd[spec.Name]; ok {
			row(spec, s)
		}
	}
	for _, spec := range allLayers {
		if s, ok := wr.PerLayer[spec.Name]; ok {
			row(spec, s)
		}
	}
	// Diagnostics that are not metrics: tails from the untraced rounds.
	for _, d := range []metricSpec{
		{Name: "client.step_rtt_ms_p95", Unit: "ms"}, {Name: "client.session_ms_p95", Unit: "ms"}, {Name: clientResends, Unit: "count"},
	} {
		if _, traced := wr.PerLayer[d.Name]; !traced {
			if vs := overRounds(wr.Rounds, d.Name); len(vs) > 0 {
				d.Name += " (diagnostic)"
				row(d, newStat(d.Unit, vs))
			}
		}
	}
	tw.Flush()
	for _, c := range wr.Checks {
		verdict := "ok"
		switch {
		case c.Skipped:
			verdict = "skipped"
		case !c.OK:
			verdict = "FAILED"
		}
		fmt.Fprintf(out, "   check.%s: %s — %s\n", c.Name, verdict, c.Detail)
	}
}

func formatValues(vs []float64) string {
	var b bytes.Buffer
	for i, v := range vs {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%.5g", v)
	}
	return b.String()
}
