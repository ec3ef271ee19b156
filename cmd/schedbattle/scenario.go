package main

// The scenario CLI glue: `schedbattle -scenarios` lists the bundled
// library, `-scenario <name|file.json>` compiles a spec into a trial grid,
// runs it on the worker pool, and writes the structured JSON report.

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/scenario"
	"repro/internal/timeline"
)

// scenarioMode is -scenario <spec>: one scenario with its exports.
func scenarioMode(fs *flag.FlagSet) func() int {
	spec := fs.String("scenario", "", "run a scenario: bundled name or path to a .json `spec`")
	tf := declareTrialFlags(fs, false).declareCacheFlags(fs)
	var o scenarioOutputs
	fs.StringVar(&o.series, "series", "", "path for the probe-series CSV export")
	fs.StringVar(&o.traceDir, "trace", "", "directory for per-trial dtrace/v1 decision-trace files (enables tracing even when the spec has no trace block)")
	fs.StringVar(&o.traceCSV, "trace-csv", "", "path for the decision-trace CSV debug rendering (same enabling rule as -trace)")
	fs.StringVar(&o.timelineDir, "timeline", "", "directory for per-trial Perfetto .trace.json timeline exports (enables the timeline even when the spec has no timeline block)")
	fs.BoolVar(&o.timehist, "timehist", false, "print a perf-sched-timehist-style per-slice table to stderr (same enabling rule as -timeline)")
	return tf.run(func() (int, error) {
		o.out = tf.out
		if err := runScenario(*spec, tf.scale, o); err != nil {
			return 1, err
		}
		return 0, nil
	})
}

// scenariosMode is -scenarios: it prints the bundled library's id, grid
// size, and one-line description. Trailing hint lines start with "run" so
// listing consumers (the CI smoke loop) can filter them out by first
// column.
func scenariosMode(fs *flag.FlagSet) func() int {
	fs.Bool("scenarios", false, "list bundled scenarios and exit")
	return func() int {
		specs, err := scenario.Builtin()
		if err != nil {
			fmt.Fprintf(os.Stderr, "schedbattle: %v\n", err)
			return 1
		}
		for _, sp := range specs {
			trials, err := sp.Compile(1)
			if err != nil {
				fmt.Fprintf(os.Stderr, "schedbattle: %v\n", err)
				return 1
			}
			fmt.Printf("%-16s %2d trials  %s\n", sp.Name, len(trials), sp.Description)
		}
		fmt.Println("\nrun one with:      schedbattle -scenario <name> [-scale 0.1] [-out report.json]")
		fmt.Println("run a battle with: schedbattle -battle <name>[,<name>...] [-replications 5] [-md battle.md]")
		return 0
	}
}

// scenarioOutputs holds -scenario's export flags. Every file and
// directory path gets mkdir -p semantics: missing parents are created
// rather than failing the run after the grid already executed.
type scenarioOutputs struct {
	out, series, traceDir, traceCSV, timelineDir string
	timehist                                     bool
}

// ensureParentDir creates path's missing parent directories (mkdir -p),
// so nested export destinations like out/run3/series.csv just work.
func ensureParentDir(path string) error {
	dir := filepath.Dir(path)
	if dir == "" || dir == "." {
		return nil
	}
	return os.MkdirAll(dir, 0o755)
}

// writeFileP is os.WriteFile with mkdir -p on the parent.
func writeFileP(path string, data []byte) error {
	if err := ensureParentDir(path); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// runScenario loads, runs, and reports one scenario. The report goes to
// o.out ("" or "-" = stdout); a one-line summary per trial goes to
// stderr so a redirected stdout stays pure JSON. Every export failure
// names the path it could not write and fails the run.
func runScenario(nameOrPath string, scale float64, o scenarioOutputs) error {
	sp, err := scenario.Load(nameOrPath)
	if err != nil {
		return err
	}
	// Bundled specs are shared read-only: a stream flag enables its
	// recorder's default block on a copy.
	cp := *sp
	if (o.traceDir != "" || o.traceCSV != "") && cp.Trace == nil {
		cp.Trace = &scenario.TraceSpec{}
	}
	if (o.timelineDir != "" || o.timehist) && cp.Timeline == nil {
		cp.Timeline = &scenario.TimelineSpec{}
	}
	rep, err := cp.Run(scale)
	var fails *scenario.TrialFailures
	if err != nil {
		// Partial failure still produced a full report (failed cells carry
		// Error): write it, dump diagnostics, and exit non-zero at the end.
		// Anything else is fatal.
		if !errors.As(err, &fails) {
			return err
		}
	}
	for _, tr := range rep.Trials {
		line := fmt.Sprintf("%-36s events=%d", tr.Name, tr.Events)
		if tr.Error != "" {
			line += "  FAILED: " + tr.Error
			fmt.Fprintln(os.Stderr, line)
			continue
		}
		if tr.Throughput != nil {
			line += fmt.Sprintf("  ops=%d (%.4g/s)", tr.Throughput.TotalOps, tr.Throughput.OpsPerSec)
		}
		if tr.Latency != nil {
			line += fmt.Sprintf("  p50=%.4gus p99=%.4gus", tr.Latency.P50US, tr.Latency.P99US)
		}
		if v, ok := tr.Derived[scenario.MetricConvergenceUS]; ok {
			line += fmt.Sprintf("  conv=%.4gus", v)
		}
		if v, ok := tr.Derived[scenario.MetricRecoveryUS]; ok {
			line += fmt.Sprintf("  recov=%.4gus", v)
		}
		if v, ok := tr.Derived[scenario.MetricHeadroomPct]; ok {
			line += fmt.Sprintf("  headroom=%.3g%%", v)
		}
		if v, ok := tr.Derived[scenario.MetricSchedLatencyP99US]; ok {
			line += fmt.Sprintf("  slat99=%.4gus", v)
		}
		fmt.Fprintln(os.Stderr, line)
	}
	if o.out != "" && o.out != "-" {
		if err := ensureParentDir(o.out); err != nil {
			return fmt.Errorf("creating report directory for %s: %w", o.out, err)
		}
	}
	if err := scenario.WriteReport(o.out, rep); err != nil {
		if o.out == "" || o.out == "-" {
			return fmt.Errorf("writing report to stdout: %w", err)
		}
		return fmt.Errorf("writing report %s: %w", o.out, err)
	}
	if o.out != "" && o.out != "-" {
		fmt.Fprintf(os.Stderr, "schedbattle: wrote %s\n", o.out)
	}
	if o.series != "" {
		if err := writeFileP(o.series, rep.SeriesCSV()); err != nil {
			return fmt.Errorf("writing series CSV %s: %w", o.series, err)
		}
		fmt.Fprintf(os.Stderr, "schedbattle: wrote %s\n", o.series)
	}
	if o.traceDir != "" {
		if err := writeStreams(o.traceDir, "trace", ".dtrace", rep, func(tr *scenario.TrialReport) []byte { return tr.TraceData }); err != nil {
			return err
		}
	}
	if o.traceCSV != "" {
		csv, err := rep.TraceCSV()
		if err != nil {
			return fmt.Errorf("rendering trace CSV: %w", err)
		}
		if err := writeFileP(o.traceCSV, csv); err != nil {
			return fmt.Errorf("writing trace CSV %s: %w", o.traceCSV, err)
		}
		fmt.Fprintf(os.Stderr, "schedbattle: wrote %s\n", o.traceCSV)
	}
	if o.timelineDir != "" {
		if err := writeStreams(o.timelineDir, "timeline", ".trace.json", rep, func(tr *scenario.TrialReport) []byte { return tr.TimelineData }); err != nil {
			return err
		}
	}
	if o.timehist {
		if err := renderTimehist(os.Stderr, rep); err != nil {
			return err
		}
	}
	if fails != nil {
		// Stacks go to stderr only — they carry host addresses and must
		// never enter the (byte-compared) report.
		for _, te := range fails.Errs {
			fmt.Fprintf(os.Stderr, "schedbattle: %v\n%s\n", te, te.Stack)
		}
		return fmt.Errorf("%d of %d trials failed", len(fails.Errs), fails.Total)
	}
	return nil
}

// writeStreams dumps one stream of every trial as "<dir>/<trial><ext>",
// the trial name's path separators flattened to underscores
// ("web-tail/c8/ule/x0.05/s1" → "web-tail_c8_ule_x0.05_s1"): the
// dtrace/v1 streams as .dtrace, the Perfetto timelines (loadable at
// ui.perfetto.dev) as .trace.json. Trials without that stream (failed
// cells) are skipped; kind names the stream in messages.
func writeStreams(dir, kind, ext string, rep *scenario.Report, stream func(*scenario.TrialReport) []byte) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("creating %s directory %s: %w", kind, dir, err)
	}
	n := 0
	for i := range rep.Trials {
		data := stream(&rep.Trials[i])
		if len(data) == 0 {
			continue
		}
		path := filepath.Join(dir, strings.ReplaceAll(rep.Trials[i].Name, "/", "_")+ext)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			return fmt.Errorf("writing %s %s: %w", kind, path, err)
		}
		n++
	}
	fmt.Fprintf(os.Stderr, "schedbattle: wrote %d %s file(s) to %s\n", n, kind, dir)
	return nil
}

// timehist render bounds: enough rows to read a trial's shape without
// flooding a terminal when the grid is large.
const (
	timehistMaxRows = 40
	timehistTopN    = 10
)

// renderTimehist prints a perf-sched-timehist-style table per trial,
// decoded from the same bytes -timeline exports.
func renderTimehist(w *os.File, rep *scenario.Report) error {
	for i := range rep.Trials {
		tr := &rep.Trials[i]
		if len(tr.TimelineData) == 0 {
			continue
		}
		dec, err := timeline.DecodeTrace(tr.TimelineData)
		if err != nil {
			return fmt.Errorf("trial %s: decoding timeline: %w", tr.Name, err)
		}
		fmt.Fprintf(w, "\n=== timehist %s ===\n", tr.Name)
		if err := dec.Timehist(w, timehistMaxRows, timehistTopN); err != nil {
			return err
		}
	}
	return nil
}
