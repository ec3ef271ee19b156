// Command schedbattle reproduces the paper's evaluation artifacts: it runs
// any registered experiment (figures 1-9, table 2, the §6.3 overhead
// analysis, and the ablations) and prints the same rows/series the paper
// reports. It also runs declarative scenarios — JSON specs sweeping
// workload mixes over cores × scales × schedulers × seeds — either bundled
// in the binary or loaded from a file. Trial grids execute on a worker
// pool (-jobs wide); output is byte-identical whatever the pool width.
//
// Usage:
//
//	schedbattle -list
//	schedbattle -run table2 -jobs 8
//	schedbattle -run fig6 -scale 0.25 -series /tmp/fig6
//	schedbattle -all -scale 0.2 -jobs 16 -seed 7 -out results.json
//	schedbattle -scenarios
//	schedbattle -scenario web-tail -scale 0.1 -out report.json
//	schedbattle -scenario web-tail -scale 0.1 -series web-tail.csv
//	schedbattle -scenario my-scenario.json
//	schedbattle -battle web-tail -scale 0.1 -out battle.json -md battle.md
//	schedbattle -battle all -scale 0.05 -replications 5 -baseline baselines/ci.json
//	schedbattle -check -baseline baselines/ci.json -md battle-report.md
//	schedbattle -scenario web-tail -cpuprofile cpu.out -memprofile mem.out
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"

	"repro/internal/battle"
	"repro/internal/core"
	"repro/internal/memo"
	"repro/internal/runner"
	"repro/internal/scenario"
)

func main() { os.Exit(run()) }

// run is the whole CLI. It returns the exit status instead of exiting, so
// the deferred profile writers finish on every path.
func run() (status int) {
	var (
		list       = flag.Bool("list", false, "list experiments and exit")
		runID      = flag.String("run", "", "experiment id to run")
		all        = flag.Bool("all", false, "run every experiment")
		scale      = flag.Float64("scale", 1.0, "duration scale in (0,1]: 1.0 = paper-sized")
		seriesDir  = flag.String("series", "", "with -run/-all: directory for gnuplot series files; with -scenario: path for the probe-series CSV export")
		jobs       = flag.Int("jobs", runtime.GOMAXPROCS(0), "trial-grid worker pool width")
		seed       = flag.Int64("seed", 0, "base-seed perturbation for every trial (0 = the paper-tuned seeds)")
		trialTmo   = flag.Duration("trial-timeout", 0, "per-trial wall-clock watchdog (0 = off): a stuck trial fails itself instead of wedging the grid")
		out        = flag.String("out", "", "write a structured JSON report to this file (\"-\" = stdout)")
		scen       = flag.String("scenario", "", "run a scenario: bundled name or path to a .json spec")
		traceDir   = flag.String("trace", "", "with -scenario: directory for per-trial dtrace/v1 decision-trace files (enables tracing even when the spec has no trace block)")
		traceCSV   = flag.String("trace-csv", "", "with -scenario: path for the decision-trace CSV debug rendering (same enabling rule as -trace)")
		tlDir      = flag.String("timeline", "", "with -scenario: directory for per-trial Perfetto .trace.json timeline exports (enables the timeline even when the spec has no timeline block)")
		timehist   = flag.Bool("timehist", false, "with -scenario: print a perf-sched-timehist-style per-slice table to stderr (same enabling rule as -timeline)")
		scenList   = flag.Bool("scenarios", false, "list bundled scenarios and exit")
		battleArg  = flag.String("battle", "", "battle scenarios (comma-separated names/paths, or \"all\"): multi-seed replication, CIs, win/loss/tie matrix")
		reps       = flag.Int("replications", 5, "battle seed-replication count per scheduler")
		mdOut      = flag.String("md", "", "write the markdown battle matrix to this file (default: stdout)")
		baseline   = flag.String("baseline", "", "with -battle: write a baseline snapshot here; with -check: the baseline to gate against")
		check      = flag.Bool("check", false, "re-run the -baseline file's scenarios and exit non-zero on significant regressions")
		cpuProf    = flag.String("cpuprofile", "", "write a pprof CPU profile of the whole run here")
		memProf    = flag.String("memprofile", "", "write a pprof allocation profile, taken when the run finishes, here")
		cacheDir   = flag.String("cache", "", "persist the trial-result cache in this directory: re-runs of identical trials load stored results instead of simulating")
		noCache    = flag.Bool("no-cache", false, "disable trial-result memoization (in-grid dedup of identical cells stays)")
		cacheStats = flag.Bool("cache-stats", false, "print trial-cache hit/miss statistics to stderr when the run finishes")
	)
	flag.Parse()

	// -check and -battle run replicated grids, which carry no streams
	// (scenario.Spec.WithSeeds): an export flag beside them could only be a
	// silent no-op, so it is refused.
	if *check || *battleArg != "" {
		for _, f := range []struct {
			name string
			set  bool
		}{
			{"-trace", *traceDir != ""}, {"-trace-csv", *traceCSV != ""},
			{"-timeline", *tlDir != ""}, {"-timehist", *timehist},
			{"-series", *seriesDir != ""},
		} {
			if f.set {
				fmt.Fprintf(os.Stderr, "schedbattle: %s does nothing beside -check or -battle (replicated grids keep no per-trial streams): use it only with -scenario\n", f.name)
				return 2
			}
		}
	}

	stopProfiles, err := startProfiles(*cpuProf, *memProf)
	if err != nil {
		fmt.Fprintf(os.Stderr, "schedbattle: %v\n", err)
		return 2
	}
	defer func() {
		if err := stopProfiles(); err != nil {
			fmt.Fprintf(os.Stderr, "schedbattle: %v\n", err)
			if status == 0 {
				status = 1
			}
		}
	}()

	if *list {
		for _, e := range core.Experiments() {
			fmt.Printf("%-18s %s\n", e.ID, e.Title)
		}
		fmt.Printf("\nschedulers: %v\n", core.SchedulerKinds())
		return 0
	}

	if *scenList {
		if err := listScenarios(); err != nil {
			fmt.Fprintf(os.Stderr, "schedbattle: %v\n", err)
			return 1
		}
		return 0
	}

	if !(*scale > 0 && *scale <= 1) {
		fmt.Fprintf(os.Stderr, "schedbattle: -scale %g out of range: must be in (0, 1]\n", *scale)
		return 2
	}

	runner.SetWorkers(*jobs)
	core.SetBaseSeed(*seed)
	core.SetTrialTimeout(*trialTmo)

	// Trial-result memoization is on by default (in-memory; -cache adds the
	// persistent layer). One process-wide cache is shared by every scenario,
	// battle replication, and -check re-run, so repeated cells simulate once.
	// Cached and fresh results are byte-identical by construction — tests
	// pin it — so this cannot change any output, only how fast it appears.
	reportCacheStats := func() {
		if !*cacheStats {
			return
		}
		if c := core.TrialCache(); c != nil {
			fmt.Fprintf(os.Stderr, "schedbattle: cache: %s\n", c.Stats())
		}
		if d := core.DedupedTrials(); d > 0 {
			fmt.Fprintf(os.Stderr, "schedbattle: grid dedup: %d duplicate cells served without simulating\n", d)
		}
	}
	if *noCache {
		if *cacheDir != "" {
			fmt.Fprintln(os.Stderr, "schedbattle: -cache and -no-cache are mutually exclusive")
			return 2
		}
	} else {
		c, err := memo.New(*cacheDir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "schedbattle: opening cache %s: %v\n", *cacheDir, err)
			return 2
		}
		core.SetTrialCache(c)
	}

	if *check {
		regs, err := runCheck(*baseline, *mdOut)
		reportCacheStats()
		if err != nil {
			fmt.Fprintf(os.Stderr, "schedbattle: check: %v\n", err)
			return 2
		}
		if regs > 0 {
			return 1
		}
		return 0
	}

	if *battleArg != "" {
		opt := battle.Options{Replications: *reps, Scale: *scale}
		err := runBattle(*battleArg, opt, *out, *mdOut, *baseline)
		reportCacheStats()
		if err != nil {
			fmt.Fprintf(os.Stderr, "schedbattle: battle: %v\n", err)
			return 1
		}
		return 0
	}

	if *scen != "" {
		err := runScenario(*scen, *scale, scenarioOutputs{
			out: *out, series: *seriesDir,
			traceDir: *traceDir, traceCSV: *traceCSV,
			timelineDir: *tlDir, timehist: *timehist,
		})
		reportCacheStats()
		if err != nil {
			fmt.Fprintf(os.Stderr, "schedbattle: %v\n", err)
			return 1
		}
		return 0
	}

	var ids []string
	switch {
	case *all:
		for _, e := range core.Experiments() {
			ids = append(ids, e.ID)
		}
	case *runID != "":
		ids = []string{*runID}
	default:
		fmt.Fprintln(os.Stderr, "schedbattle: need -run <id>, -all, -scenario, -scenarios, -battle, -check, or -list")
		flag.Usage()
		return 2
	}

	// With -out -, the JSON report owns stdout; the human-readable result
	// text moves to stderr so piping into a JSON consumer just works.
	text := os.Stdout
	if *out == "-" {
		text = os.Stderr
	}

	// Run every requested experiment even if one fails; report a combined
	// non-zero exit at the end so a sweep surfaces all failures at once.
	var (
		failed  []string
		outErr  bool
		reports []scenario.ExperimentReport
	)
	for _, id := range ids {
		res, err := runExperiment(id, *scale, *seriesDir, text)
		if err != nil {
			fmt.Fprintf(os.Stderr, "schedbattle: %s: %v\n", id, err)
			failed = append(failed, id)
			continue
		}
		reports = append(reports, scenario.FromResult(res))
	}
	if *out != "" {
		rep := scenario.ExperimentsReport{
			Schema:      scenario.ExperimentsSchema,
			Scale:       *scale,
			BaseSeed:    *seed,
			Experiments: reports,
		}
		if err := scenario.WriteReport(*out, rep); err != nil {
			fmt.Fprintf(os.Stderr, "schedbattle: writing %s: %v\n", *out, err)
			outErr = true
		} else if *out != "-" {
			fmt.Fprintf(os.Stderr, "schedbattle: wrote %s\n", *out)
		}
	}
	reportCacheStats()
	if len(failed) > 0 {
		fmt.Fprintf(os.Stderr, "schedbattle: %d of %d experiments failed: %v\n", len(failed), len(ids), failed)
	}
	if len(failed) > 0 || outErr {
		return 1
	}
	return 0
}

// experimentIDs lists every registered experiment id.
func experimentIDs() []string {
	var ids []string
	for _, e := range core.Experiments() {
		ids = append(ids, e.ID)
	}
	return ids
}

// runExperiment executes one experiment, printing the text result to text
// and converting a driver panic into an error so one failing artifact
// doesn't abort the rest of a sweep.
func runExperiment(id string, scale float64, seriesDir string, text *os.File) (res *core.Result, err error) {
	e, err := core.ByID(id)
	if err != nil {
		return nil, fmt.Errorf("%w (available: %s)", err, strings.Join(experimentIDs(), ", "))
	}
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, fmt.Errorf("experiment panicked: %v", r)
		}
	}()
	res = e.Run(scale)
	fmt.Fprintln(text, res)
	if seriesDir != "" {
		if err := writeSeries(seriesDir, res); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// writeSeries dumps every series of a result as "<dir>/<id>-<set>-<name>.dat"
// in gnuplot "time value" format, iterating sets in sorted order so runs are
// reproducible file-for-file.
func writeSeries(dir string, res *core.Result) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	setNames := make([]string, 0, len(res.Series))
	for name := range res.Series {
		setNames = append(setNames, name)
	}
	sort.Strings(setNames)
	for _, setName := range setNames {
		set := res.Series[setName]
		for _, name := range set.Names() {
			s := set.Get(name)
			path := filepath.Join(dir, fmt.Sprintf("%s-%s-%s.dat", res.ID, setName, name))
			if err := os.WriteFile(path, []byte(s.Gnuplot()), 0o644); err != nil {
				return err
			}
		}
	}
	return nil
}

// startProfiles starts the -cpuprofile CPU profile and returns the function
// that stops it and writes the -memprofile allocation profile; an empty path
// leaves that profile off.
func startProfiles(cpuPath, memPath string) (stop func() error, err error) {
	var cpu *os.File
	if cpuPath != "" {
		if cpu, err = os.Create(cpuPath); err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(cpu); err != nil {
			cpu.Close()
			return nil, err
		}
	}
	return func() error {
		if cpu != nil {
			pprof.StopCPUProfile()
			if err := cpu.Close(); err != nil {
				return err
			}
		}
		if memPath == "" {
			return nil
		}
		f, err := os.Create(memPath)
		if err != nil {
			return err
		}
		runtime.GC() // settle the allocation counts up to this point
		if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}, nil
}
