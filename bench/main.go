// Command bench is the repository's benchmark: four single-stream
// workloads over real loopback TCP, ten end-to-end metrics reported as
// medians over interleaved rounds, and a per-layer trace. README.md in
// this directory defines every workload and metric.
//
//	go run ./bench -seed 1 -out bench/out        the whole suite
//	go run ./bench compare A.json B.json          two result files
//	bash bench/run.sh --workload train-cut1 --seed 1 --seconds 33 --trace 0
//
// The last form is the acceptance driver's contract: the suite narrowed to
// one workload, with as many rounds as fit in the given time and one JSON
// line last on standard output.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	if len(args) > 0 && args[0] == "compare" {
		return runCompare(args[1:])
	}
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	seed := fs.Uint64("seed", 1, "workload seed: the same seed gives the same inputs")
	out := fs.String("out", filepath.Join("bench", "out"), "directory for the result and trace files")
	smoke := fs.Bool("smoke", false, "shrink every workload to a few steps and run in-process (checks the path, measures nothing)")
	name := fs.String("workload", "", "run this one workload for -seconds and print the driver's result line")
	seconds := fs.Int("seconds", 33, "with -workload: how long to keep taking rounds")
	trace := fs.Int("trace", 0, "with -workload: 0 reports the end-to-end metrics, 1 the per-layer ones")
	child := fs.String("child", "", "internal: run one round of this kind and print its record")
	traced := fs.Bool("traced", false, "internal: with -child, record spans")
	traceOut := fs.String("trace-out", "", "internal: with -child, where the spans go")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}

	runner := roundRunner(childProcess)
	if *smoke {
		runner = inProcess
	}
	switch {
	case *child != "":
		w, err := workloadByName(*name, *smoke)
		if err != nil {
			return err
		}
		rec, err := inProcess(roundKind(*child), w, *seed, *traced, *traceOut)
		if err != nil {
			return err
		}
		return json.NewEncoder(os.Stdout).Encode(rec)

	case *name != "":
		if *trace != 0 && *trace != 1 {
			return fmt.Errorf("-trace must be 0 or 1, got %d", *trace)
		}
		w, err := workloadByName(*name, *smoke)
		if err != nil {
			return err
		}
		res, err := runSuite(runner, plan{workloads: []workload{w}, rounds: driverRounds,
			budget: time.Duration(*seconds) * time.Second, traced: *trace == 1, smoke: *smoke}, *seed, *out)
		if err != nil {
			return err
		}
		wr := res.Workloads[0]
		printWorkload(os.Stdout, wr)
		line, err := driverResult(wr, *trace == 1)
		if err != nil {
			return err
		}
		return json.NewEncoder(os.Stdout).Encode(line)

	default:
		p := plan{workloads: workloads(*smoke), rounds: suiteRounds, traced: true, smoke: *smoke}
		if *smoke {
			p.rounds = 1
		}
		res, err := runSuite(runner, p, *seed, *out)
		if err != nil {
			return err
		}
		ok := true
		for _, wr := range res.Workloads {
			printWorkload(os.Stdout, wr)
			ok = ok && wr.correct()
		}
		path := filepath.Join(*out, "result.json")
		if err := res.write(path); err != nil {
			return err
		}
		fmt.Printf("\nresult file: %s (host: nproc %d, %s, kernel %s, git %s, seed %d)\n",
			path, res.Host.NProc, res.Host.GoVersion, res.Host.Kernel, res.Host.GitRev, res.Seed)
		if !ok {
			return fmt.Errorf("correctness checks failed")
		}
		return nil
	}
}

func runCompare(args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("usage: bench compare BASE.json CHANGE.json")
	}
	base, err := readResult(args[0])
	if err != nil {
		return err
	}
	change, err := readResult(args[1])
	if err != nil {
		return err
	}
	cells, err := compareResults(base, change)
	if err != nil {
		return err
	}
	if failing := printCompare(os.Stdout, base, change, cells); failing > 0 {
		return fmt.Errorf("%d cells worse than their bound or missing", failing)
	}
	return nil
}
