// Command bench is the repository's benchmark: five fixed workloads that
// drive the packages' public functions from outside, each printing its
// end-to-end metrics (or, traced, its per-layer metrics) and checking its
// outputs. README.md explains the workloads and the metric tables;
// BENCHMARK.json at the repository root declares them to the driver.
//
//	go run ./bench                                  all five, one child process each
//	go run ./bench -trace 1                         ... plus a traced child for the layer metrics
//	go run ./bench -workload observed -seed 7       one workload, in this process
//	go run ./bench -compare base.json change.json   hold two results.json to the bounds
//
// Run it from the repository root: the grid workloads read
// baselines/ci.json and results go to bench/out/.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"time"
)

// processStart is when set-up starts counting for the command.
var processStart = time.Now()

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 10

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	fs.StringVar(&cfg.workload, "workload", "", "run this workload in this process (default: all, one child process each)")
	fs.Int64Var(&cfg.seed, "seed", 0, "base seed the workload's inputs are generated from (grid-short and cache-warm run the baseline's own)")
	fs.Float64Var(&cfg.seconds, "seconds", defaultSeconds, "how long the timed passes run; every workload also has a minimum pass count")
	trace := fs.Int("trace", 0, "1: run the traced pass and print the per-layer metrics instead of the end-to-end ones")
	fs.BoolVar(&cfg.quick, "quick", false, "one pass with windows cut by 20: a smoke test, not a measurement")
	fs.StringVar(&cfg.outDir, "out", filepath.Join("bench", "out"), "directory for result files, span files and scratch")
	doCompare := fs.Bool("compare", false, "compare two results.json files, base then change (each may be a comma-separated list of runs), and exit non-zero if the change is worse")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg.trace = *trace != 0
	cfg.started = processStart

	switch {
	case *doCompare:
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare needs two result files: base, then change")
			return 2
		}
		base, err := readSide(fs.Arg(0))
		if err == nil {
			var change side
			if change, err = readSide(fs.Arg(1)); err == nil {
				if compare(stdout, base, change) {
					return 1
				}
				return 0
			}
		}
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 2

	case fs.NArg() != 0:
		fmt.Fprintf(stderr, "bench: unexpected argument %q\n", fs.Arg(0))
		return 2

	case cfg.workload != "":
		res, err := runWorkload(cfg)
		if err == nil {
			err = writeResults(resultPath(cfg), []*result{res})
		}
		if err == nil {
			err = report(stdout, res)
		}
		if err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
		if !res.Correct {
			return 1
		}
		return 0
	}
	return runAll(cfg, stdout, stderr)
}

// runAll runs every workload in a child process of its own, one after the
// other, and gathers their result files into results.json. A workload's
// peak memory and warm-up are then its own and not its predecessors'.
func runAll(cfg config, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	child := func(c config) (*result, error) {
		traceArg := "0"
		if c.trace {
			traceArg = "1"
		}
		cmd := exec.Command(self,
			"-workload", c.workload, "-seed", fmt.Sprint(c.seed), "-seconds", fmt.Sprint(c.seconds),
			"-trace", traceArg, fmt.Sprintf("-quick=%v", c.quick), "-out", c.outDir)
		cmd.Stdout, cmd.Stderr = stdout, stderr
		runErr := cmd.Run()
		f, err := readResults(resultPath(c))
		if err != nil {
			if runErr != nil {
				return nil, fmt.Errorf("%s: %w", c.workload, runErr)
			}
			return nil, err
		}
		return f.Workloads[0], nil
	}
	failed := false
	var all []*result
	for _, w := range workloads {
		c := cfg
		c.workload, c.trace = w.name, false
		res, err := child(c)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			failed = true
			continue
		}
		if cfg.trace {
			c.trace = true
			traced, err := child(c)
			if err != nil {
				fmt.Fprintf(stderr, "bench: %v\n", err)
				failed = true
			} else {
				res.Layers = traced.Layers
				for kind, d := range traced.Digests {
					res.Digests[kind] = d
				}
				res.Attempted += traced.Attempted
				res.Failed += traced.Failed
				res.Failures = append(res.Failures, traced.Failures...)
				res.Correct = res.Correct && traced.Correct
			}
		}
		failed = failed || !res.Correct
		all = append(all, res)
	}
	path := filepath.Join(cfg.outDir, "results.json")
	if err := writeResults(path, all); err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "wrote %s\n", path)
	if failed {
		fmt.Fprintln(stdout, "FAILED: see the failed checks above")
		return 1
	}
	return 0
}
