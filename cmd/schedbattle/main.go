// Command schedbattle reproduces the paper's evaluation artifacts: it runs
// any registered experiment (figures 1-9, table 2, the §6.3 overhead
// analysis, and the ablations) and prints the same rows/series the paper
// reports. It also runs declarative scenarios — JSON specs sweeping
// workload mixes over cores × scales × schedulers × seeds — either bundled
// in the binary or loaded from a file. Trial grids execute on a worker
// pool (-jobs wide); output is byte-identical whatever the pool width.
//
// The first argument picks the mode, and each mode parses only the flags
// it reads: a flag of another mode, or a second mode, exits 2 before
// anything runs. `schedbattle <mode> -h` lists a mode's flags.
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
	"time"

	"repro/internal/core"
	"repro/internal/memo"
	"repro/internal/runner"
	"repro/internal/scenario"
)

func main() { os.Exit(run(os.Args[1:])) }

// modes maps each mode flag to the function that declares, on the mode's
// flag set, exactly the flags the mode reads (the mode flag included) and
// returns the mode's body, run once the flags have parsed.
var modes = map[string]func(fs *flag.FlagSet) (body func() int){
	"list":      listMode,
	"scenarios": scenariosMode,
	"run":       runMode,
	"all":       allMode,
	"scenario":  scenarioMode,
	"battle":    battleMode,
	"check":     checkMode,
}

// run is the whole CLI. It returns the exit status instead of exiting, so
// the deferred profile writers finish on every path.
func run(args []string) (status int) {
	var declare func(*flag.FlagSet) func() int
	name := ""
	if len(args) > 0 && strings.HasPrefix(args[0], "-") {
		// -name, --name, and either with =value, as the flag package reads them.
		name, _, _ = strings.Cut(strings.TrimPrefix(args[0][1:], "-"), "=")
		declare = modes[name]
	}
	if declare == nil {
		fmt.Fprintln(os.Stderr, "usage: schedbattle -list | -scenarios | -run <id> | -all | -scenario <spec> | -battle <names> | -check, the mode first, then its flags (schedbattle <mode> -h lists them)")
		if name == "h" || name == "help" {
			return 0 // asked for, as the flag package treats -h
		}
		return 2
	}
	// A flag the mode does not declare, a second mode among them, exits 2
	// in Parse, before anything runs.
	fs := flag.NewFlagSet("schedbattle -"+name, flag.ExitOnError)
	cpuProf := fs.String("cpuprofile", "", "write a pprof CPU profile of the whole run here")
	memProf := fs.String("memprofile", "", "write a pprof allocation profile, taken when the run finishes, here")
	body := declare(fs)
	fs.Parse(args)
	if fs.NArg() > 0 {
		// Parse stops at the first argument that is not a flag; every
		// flag after it would be dropped unread.
		fmt.Fprintf(os.Stderr, "schedbattle -%s: unexpected argument %q: every value follows its flag\n", name, fs.Arg(0))
		return 2
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
	return body()
}

// trialFlags are the flags every mode that simulates trials reads.
type trialFlags struct {
	scale               float64
	seed                int64
	out, cacheDir       string
	jobs                int
	trialTimeout        time.Duration
	cached              bool
	noCache, cacheStats bool
}

// declareTrialFlags declares the trial flags on fs. A replay (-check)
// leaves out -scale, -seed and -out: the baseline fixes the scale and the
// seeds, and the verdict goes to stdout.
func declareTrialFlags(fs *flag.FlagSet, replay bool) *trialFlags {
	f := &trialFlags{scale: 1}
	if !replay {
		fs.Float64Var(&f.scale, "scale", 1.0, "duration scale in (0,1]: 1.0 = paper-sized")
		fs.Int64Var(&f.seed, "seed", 0, "base-seed perturbation for every trial (0 = the paper-tuned seeds)")
		fs.StringVar(&f.out, "out", "", "write a structured JSON report to this file (\"-\" = stdout)")
	}
	fs.IntVar(&f.jobs, "jobs", runtime.GOMAXPROCS(0), "trial-grid worker pool width")
	fs.DurationVar(&f.trialTimeout, "trial-timeout", 0, "per-trial wall-clock watchdog (0 = off): a stuck trial fails itself instead of wedging the grid")
	return f
}

// declareCacheFlags declares the trial-result cache flags on fs, for the
// modes whose trials carry a cache key (-scenario, -battle, -check). The
// paper drivers' trials carry none, so -run and -all leave them out.
func (f *trialFlags) declareCacheFlags(fs *flag.FlagSet) *trialFlags {
	f.cached = true
	fs.StringVar(&f.cacheDir, "cache", "", "persist the trial-result cache in this directory: re-runs of identical trials load stored results instead of simulating")
	fs.BoolVar(&f.noCache, "no-cache", false, "disable trial-result memoization (in-grid dedup of identical cells stays)")
	fs.BoolVar(&f.cacheStats, "cache-stats", false, "print trial-cache hit/miss statistics to stderr when the run finishes")
	return f
}

// run returns the mode body that applies the flags process-wide (worker
// pool, base seed, watchdog, trial cache), runs body, reports the cache
// statistics, and then prints body's error, if any. A bad flag value
// exits 2 before body runs.
func (f *trialFlags) run(body func() (status int, err error)) func() int {
	return func() int {
		if !(f.scale > 0 && f.scale <= 1) {
			fmt.Fprintf(os.Stderr, "schedbattle: -scale %g out of range: must be in (0, 1]\n", f.scale)
			return 2
		}
		runner.SetWorkers(f.jobs)
		core.SetBaseSeed(f.seed)
		core.SetTrialTimeout(f.trialTimeout)

		// In the modes that cache, trial-result memoization is on by
		// default (in-memory; -cache adds the persistent layer). One
		// process-wide cache is shared by every scenario, battle
		// replication, and -check re-run, so repeated cells simulate once.
		// Cached and fresh results are byte-identical by construction —
		// tests pin it — so this cannot change any output, only how fast
		// it appears.
		var c *memo.Cache
		if f.noCache {
			if f.cacheDir != "" {
				fmt.Fprintln(os.Stderr, "schedbattle: -cache and -no-cache are mutually exclusive")
				return 2
			}
		} else if f.cached {
			var err error
			if c, err = memo.New(f.cacheDir); err != nil {
				fmt.Fprintf(os.Stderr, "schedbattle: opening cache %s: %v\n", f.cacheDir, err)
				return 2
			}
		}
		core.SetTrialCache(c)

		status, err := body()
		if f.cacheStats {
			if c := core.TrialCache(); c != nil {
				fmt.Fprintf(os.Stderr, "schedbattle: cache: %s\n", c.Stats())
			}
			if d := core.DedupedTrials(); d > 0 {
				fmt.Fprintf(os.Stderr, "schedbattle: grid dedup: %d duplicate cells served without simulating\n", d)
			}
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "schedbattle: %v\n", err)
		}
		return status
	}
}

// listMode is -list: the experiment catalog and the scheduler kinds.
func listMode(fs *flag.FlagSet) func() int {
	fs.Bool("list", false, "list experiments and exit")
	return func() int {
		for _, e := range core.Experiments() {
			fmt.Printf("%-18s %s\n", e.ID, e.Title)
		}
		fmt.Printf("\nschedulers: %v\n", core.SchedulerKinds())
		return 0
	}
}

// runMode is -run <id>: one experiment.
func runMode(fs *flag.FlagSet) func() int {
	id := fs.String("run", "", "experiment `id` to run")
	return experimentsMode(fs, func() []string { return []string{*id} })
}

// allMode is -all: every experiment, in catalog order.
func allMode(fs *flag.FlagSet) func() int {
	fs.Bool("all", false, "run every experiment")
	return experimentsMode(fs, experimentIDs)
}

// experimentsMode declares the flags -run and -all share and returns the
// sweep over ids. Every requested experiment runs even if one fails; the
// combined non-zero exit at the end surfaces all failures at once.
func experimentsMode(fs *flag.FlagSet, ids func() []string) func() int {
	tf := declareTrialFlags(fs, false)
	seriesDir := fs.String("series", "", "directory for gnuplot series files, one per series")
	return tf.run(func() (int, error) {
		// With -out -, the JSON report owns stdout; the human-readable
		// result text moves to stderr so piping into a JSON consumer just
		// works.
		text := os.Stdout
		if tf.out == "-" {
			text = os.Stderr
		}
		var (
			ids     = ids()
			status  int
			failed  []string
			reports []scenario.ExperimentReport
		)
		for _, id := range ids {
			res, err := runExperiment(id, tf.scale, *seriesDir, text)
			if err != nil {
				fmt.Fprintf(os.Stderr, "schedbattle: %s: %v\n", id, err)
				failed = append(failed, id)
				continue
			}
			reports = append(reports, scenario.FromResult(res))
		}
		if tf.out != "" {
			rep := scenario.ExperimentsReport{
				Schema:      scenario.ExperimentsSchema,
				Scale:       tf.scale,
				BaseSeed:    tf.seed,
				Experiments: reports,
			}
			if err := scenario.WriteReport(tf.out, rep); err != nil {
				fmt.Fprintf(os.Stderr, "schedbattle: writing %s: %v\n", tf.out, err)
				status = 1
			} else if tf.out != "-" {
				fmt.Fprintf(os.Stderr, "schedbattle: wrote %s\n", tf.out)
			}
		}
		if len(failed) > 0 {
			return 1, fmt.Errorf("%d of %d experiments failed: %v", len(failed), len(ids), failed)
		}
		return status, nil
	})
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
