package main

import (
	"fmt"
	"io"
	"math"
	"text/tabwriter"
)

// Verdicts of compare: the change's median against the base's, by the
// metric's bound. A cell one of the files has no value for is missing,
// which fails the comparison like a worse one: a change must not pass by
// dropping a workload or a metric.
const (
	verdictSame    = "same"
	verdictBetter  = "better"
	verdictWorse   = "worse"
	verdictMissing = "missing"
)

// cell is one workload × metric comparison.
type cell struct {
	Workload, Metric string
	Base, Change     stat
	// Delta is (change − base) ÷ base, infinite when the base is 0 and the
	// change is not; for failed_frac, whose base is 0 when healthy, it is
	// the absolute difference.
	Delta   float64
	Verdict string
	// Unresolved says either side's inter-quartile range over its rounds
	// is wider than the bound: the verdict stands on medians the rounds
	// do not pin down.
	Unresolved bool
}

// verdict applies spec's bound to two medians.
func verdict(spec metricSpec, base, change float64) (delta float64, v string) {
	switch {
	case spec.Name == failedFrac:
		delta = change - base
	case base != 0:
		delta = (change - base) / base
	case change != 0:
		delta = math.Inf(int(math.Copysign(1, change)))
	}
	gain := -delta // lower is better
	if spec.Better == "higher" {
		gain = delta
	}
	switch {
	case gain < -spec.Bound || (spec.Bound == 0 && gain < 0):
		return delta, verdictWorse
	case gain > spec.Bound:
		return delta, verdictBetter
	default:
		return delta, verdictSame
	}
}

// compareResults compares every workload × end-to-end metric of either
// file. It refuses two files whose numbers cannot be compared: a smoke
// result against a measured one, or different CPU counts.
func compareResults(base, change *resultFile) ([]cell, error) {
	if base.Smoke != change.Smoke {
		return nil, fmt.Errorf("smoke result against a measured one (base smoke=%v, change smoke=%v)", base.Smoke, change.Smoke)
	}
	if base.Host.NProc != change.Host.NProc {
		return nil, fmt.Errorf("results from %d and %d CPUs are not comparable", base.Host.NProc, change.Host.NProc)
	}
	names := []string{}
	for _, w := range base.Workloads {
		names = append(names, w.Name)
	}
	for _, w := range change.Workloads {
		if base.workload(w.Name) == nil {
			names = append(names, w.Name)
		}
	}
	var cells []cell
	for _, name := range names {
		bw, cw := base.workload(name), change.workload(name)
		for _, spec := range endToEnd {
			c := cell{Workload: name, Metric: spec.Name, Verdict: verdictMissing}
			var okB, okC bool
			if bw != nil {
				c.Base, okB = bw.EndToEnd[spec.Name]
			}
			if cw != nil {
				c.Change, okC = cw.EndToEnd[spec.Name]
			}
			if okB && okC {
				c.Delta, c.Verdict = verdict(spec, c.Base.Median, c.Change.Median)
				c.Unresolved = spec.Bound > 0 && (c.Base.iqrFrac() > spec.Bound || c.Change.iqrFrac() > spec.Bound)
			}
			cells = append(cells, c)
		}
	}
	return cells, nil
}

// printCompare prints one row per cell, every ratio with its base, and
// returns how many cells are worse or missing.
func printCompare(out io.Writer, base, change *resultFile, cells []cell) (failing int) {
	fmt.Fprintf(out, "base:   seed %d, git %s, %s, nproc %d\n", base.Seed, base.Host.GitRev, base.Host.GoVersion, base.Host.NProc)
	fmt.Fprintf(out, "change: seed %d, git %s, %s, nproc %d\n", change.Seed, change.Host.GitRev, change.Host.GoVersion, change.Host.NProc)
	tw := tabwriter.NewWriter(out, 0, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tbase\tchange\tchange/base\tbase iqr\tchange iqr\tverdict")
	for _, c := range cells {
		v := c.Verdict
		if c.Unresolved {
			v += " unresolved"
		}
		if c.Verdict == verdictWorse || c.Verdict == verdictMissing {
			failing++
		}
		ratio := "-"
		if c.Verdict != verdictMissing && c.Base.Median != 0 {
			ratio = fmt.Sprintf("%.4f (%+.2f %% of %.6g)", c.Change.Median/c.Base.Median, 100*c.Delta, c.Base.Median)
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%.6g\t%.6g\t%s\t%.2f %%\t%.2f %%\t%s\n",
			c.Workload, c.Metric, c.Base.Unit, c.Base.Median, c.Change.Median, ratio,
			100*c.Base.iqrFrac(), 100*c.Change.iqrFrac(), v)
	}
	tw.Flush()
	for _, c := range cells {
		if c.Unresolved {
			fmt.Fprintf(out, "unresolved %s %s: base rounds %s | change rounds %s\n",
				c.Workload, c.Metric, formatValues(c.Base.Values), formatValues(c.Change.Values))
		}
	}
	if base.Seed != change.Seed {
		fmt.Fprintln(out, "check.final_loss: the seeds differ, so the final losses are not comparable")
		return failing
	}
	for _, bw := range base.Workloads {
		if cw := change.workload(bw.Name); cw != nil && bw.FinalLossBits != "" {
			fmt.Fprintf(out, "check.final_loss %-16s base %s change %s identical: %v\n",
				bw.Name, bw.FinalLossBits, cw.FinalLossBits, bw.FinalLossBits == cw.FinalLossBits)
		}
	}
	return failing
}
