package main

// The engine perf harness behind `schedbattle -perf`: it times a fixed set
// of simulation scenarios on this machine and writes events/sec and
// sim-seconds-per-wall-second to a JSON file, so the engine's performance
// trajectory is tracked run over run (EXPERIMENTS.md, "Engine perf
// harness").
//
// The output file is a trajectory: each harness run appends (or replaces,
// when the label matches) one dated entry, so BENCH_engine.json accumulates
// the per-PR history the ROADMAP asks for instead of overwriting it.
// `-perf-check` re-times the scenarios and gates against the committed
// trajectory's latest entry, failing on >tolerance events/sec regressions.

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime/pprof"
	"strings"
	"time"

	"repro/internal/apps"
	"repro/internal/battle"
	"repro/internal/core"
	"repro/internal/dtrace"
	"repro/internal/memo"
	"repro/internal/probe"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/timeline"
)

// perfScenario is one timed simulation: a machine builder plus the
// simulated window to drive it through. traced scenarios additionally
// attach a full decision-trace recorder draining to io.Discard, pricing
// the dtrace layer against its untraced twin; timelined scenarios attach
// the thread-state flight recorder the same way.
type perfScenario struct {
	name      string
	window    time.Duration
	build     func() *sim.Machine
	traced    bool
	timelined bool
}

// perfResult is one timed scenario row of a trajectory entry. Decisions
// and DecisionsPerSec are present for traced scenarios only: scheduler
// decision points observed by the recorder, before sampling.
type perfResult struct {
	Name            string  `json:"name"`
	Events          uint64  `json:"events"`
	WallSeconds     float64 `json:"wall_seconds"`
	SimSeconds      float64 `json:"sim_seconds"`
	EventsPerSec    float64 `json:"events_per_sec"`
	SimPerWall      float64 `json:"sim_seconds_per_wall_second"`
	Decisions       uint64  `json:"decisions,omitempty"`
	DecisionsPerSec float64 `json:"decisions_per_sec,omitempty"`
	// TimelineSlices is present for timelined scenarios only: running
	// slices the flight recorder closed during the run.
	TimelineSlices uint64 `json:"timeline_slices,omitempty"`
}

// perfEntry is one harness run in the trajectory: a label (normally the
// PR's short git head), the run date, and the per-scenario results.
type perfEntry struct {
	Label     string       `json:"label"`
	Date      string       `json:"date"`
	Iters     int          `json:"iters"`
	Scenarios []perfResult `json:"scenarios"`
}

// perfFile is the BENCH_engine.json format: the full trajectory, oldest
// entry first.
type perfFile struct {
	History []perfEntry `json:"history"`
}

// perfOptions carries the harness CLI knobs.
type perfOptions struct {
	iters      int
	label      string
	engine     string // "wheel" (default) or "heap"
	cpuProfile string
	memProfile string
}

// applyEngine points the engine at the requested event queue for the
// duration of the harness, so the wheel and the heap can be A/B-timed on
// the same machine in the same process state.
func (o perfOptions) applyEngine() error {
	switch o.engine {
	case "", "wheel":
		sim.SetForceEventHeap(false)
	case "heap":
		sim.SetForceEventHeap(true)
	default:
		return fmt.Errorf("unknown -perf-engine %q (want wheel or heap)", o.engine)
	}
	return nil
}

// perfScenarios covers the regimes that bound experiment wall-clock time:
// a saturated server workload under each scheduler (event-dense), the
// same workload with the full telemetry probe set attached (pricing the
// probe layer against its zero-probe twin), and a mostly-idle machine
// (tick-dominated: every core ticks whether or not it has work).
func perfScenarios() []perfScenario {
	server := func(kind core.SchedulerKind, probes bool) func() *sim.Machine {
		return func() *sim.Machine {
			m := core.NewMachine(core.MachineConfig{Cores: 32, Kind: kind, Seed: 13, KernelNoise: true})
			spec, err := apps.ByName("sysbench")
			if err != nil {
				panic(err)
			}
			spec.New(m, apps.Env{Cores: 32})
			if probes {
				probe.MustAttach(m, probe.Options{Probes: probe.Names()})
			}
			return m
		}
	}
	return []perfScenario{
		{name: "sysbench-ule-32", window: apps.ShellWarmup + 3*time.Second, build: server(core.ULE, false)},
		{name: "sysbench-ule-32-probed", window: apps.ShellWarmup + 3*time.Second, build: server(core.ULE, true)},
		{name: "sysbench-ule-32-traced", window: apps.ShellWarmup + 3*time.Second, build: server(core.ULE, false), traced: true},
		{name: "sysbench-ule-32-timelined", window: apps.ShellWarmup + 3*time.Second, build: server(core.ULE, false), timelined: true},
		{name: "sysbench-cfs-32", window: apps.ShellWarmup + 3*time.Second, build: server(core.CFS, false)},
		{name: "idle-ule-32", window: 10 * time.Second, build: func() *sim.Machine {
			return core.NewMachine(core.MachineConfig{Cores: 32, Kind: core.ULE, Seed: 13})
		}},
	}
}

// timeScenarios runs every scenario iters times and keeps each scenario's
// best run (events/sec): repeated fresh-machine runs are identical
// simulations, so the minimum wall time is the least-noisy measurement of
// the engine itself.
func timeScenarios(iters int) []perfResult {
	if iters < 1 {
		iters = 1
	}
	var results []perfResult
	for _, sc := range perfScenarios() {
		// One untimed warm-up run: the first timed scenario in a cold
		// process otherwise eats page faults and frequency ramp-up and
		// reads 10-15% slow, which would poison the -perf-check gate.
		{
			m := sc.build()
			perfAttachTrace(&sc, m)
			perfAttachTimeline(&sc, m)
			m.Run(sc.window)
		}
		var best perfResult
		for it := 0; it < iters; it++ {
			m := sc.build()
			rec := perfAttachTrace(&sc, m)
			tlrec := perfAttachTimeline(&sc, m)
			start := time.Now()
			m.Run(sc.window)
			wall := time.Since(start).Seconds()
			r := perfResult{
				Name:        sc.name,
				Events:      m.EventsProcessed(),
				WallSeconds: wall,
				SimSeconds:  sc.window.Seconds(),
			}
			if wall > 0 {
				r.EventsPerSec = float64(r.Events) / wall
				r.SimPerWall = r.SimSeconds / wall
			}
			if rec != nil {
				_ = rec.Close()
				r.Decisions = rec.Summary().Decisions
				if wall > 0 {
					r.DecisionsPerSec = float64(r.Decisions) / wall
				}
			}
			if tlrec != nil {
				tlrec.Close()
				r.TimelineSlices = tlrec.Summary().Slices
			}
			if it == 0 || r.EventsPerSec > best.EventsPerSec {
				best = r
			}
		}
		line := fmt.Sprintf("%-22s %12d events  %8.3fs wall  %10.0f events/s  %8.1f sim-s/wall-s",
			best.Name, best.Events, best.WallSeconds, best.EventsPerSec, best.SimPerWall)
		if best.DecisionsPerSec > 0 {
			line += fmt.Sprintf("  %10.0f decisions/s", best.DecisionsPerSec)
		}
		fmt.Println(line)
		results = append(results, best)
	}
	results = append(results, timeMemoScenario()...)
	return results
}

// timeMemoScenario prices the trial-result cache: one battle replication
// study (web-tail, 5 seeds per scheduler) run cold into a fresh in-memory
// cache, then re-run warm so every trial is a cache hit. The warm row's
// EventsPerSec is deliberately 0 — wall time there measures deserialization,
// not the engine, so the -perf-check gate skips it (its committed baseline
// never has a positive events/sec) while the trajectory still records the
// cold/warm wall ratio.
func timeMemoScenario() []perfResult {
	prev := core.TrialCache()
	cache, err := memo.New("")
	if err != nil {
		panic(err) // memory-only New cannot fail
	}
	core.SetTrialCache(cache)
	defer core.SetTrialCache(prev)

	sp, err := scenario.LoadBuiltin("web-tail")
	if err != nil {
		panic(err) // bundled
	}
	opt := battle.Options{Replications: 5, Scale: 0.05}
	one := func(name string) perfResult {
		start := time.Now()
		if _, err := battle.Run(sp, opt); err != nil {
			panic(err)
		}
		wall := time.Since(start).Seconds()
		return perfResult{Name: name, WallSeconds: wall, SimSeconds: sp.Window.D().Seconds() * opt.Scale}
	}
	cold := one("memo-battle-cold")
	st := cache.Stats()
	warm := one("memo-battle-warm")
	if misses := cache.Stats().Misses - st.Misses; misses > 0 {
		panic(fmt.Sprintf("perf: warm battle pass missed the cache %d times", misses))
	}
	fmt.Printf("%-22s %8.3fs wall (cold)\n", cold.Name, cold.WallSeconds)
	fmt.Printf("%-22s %8.3fs wall (warm, %d hits)  %.1fx speedup\n",
		warm.Name, warm.WallSeconds, cache.Stats().Hits-st.Hits, cold.WallSeconds/warm.WallSeconds)
	return []perfResult{cold, warm}
}

// perfAttachTrace attaches the full-fidelity recorder to traced
// scenarios; nil otherwise. io.Discard keeps encode work in the timing
// without accumulating gigabytes, and the effectively-unbounded byte cap
// prevents mid-run chunk dropping from hiding encode cost.
func perfAttachTrace(sc *perfScenario, m *sim.Machine) *dtrace.Recorder {
	if !sc.traced {
		return nil
	}
	rec, err := dtrace.Attach(m, dtrace.Options{Sink: io.Discard, MaxBytes: 1 << 40})
	if err != nil {
		panic(err) // static options
	}
	return rec
}

// perfAttachTimeline attaches the thread-state flight recorder (default
// options — the realistic 32 MiB event budget) to timelined scenarios;
// nil otherwise. The off/on delta against sysbench-ule-32 prices the
// timeline layer.
func perfAttachTimeline(sc *perfScenario, m *sim.Machine) *timeline.Recorder {
	if !sc.timelined {
		return nil
	}
	rec, err := timeline.Attach(m, timeline.Options{})
	if err != nil {
		panic(err) // static options
	}
	return rec
}

// perfLabelOrDefault resolves the trajectory label: the -perf-label flag,
// else the short git head, else "dev".
func perfLabelOrDefault(label string) string {
	if label != "" {
		return label
	}
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err == nil {
		if head := strings.TrimSpace(string(out)); head != "" {
			return head
		}
	}
	return "dev"
}

// loadPerfFile reads an existing trajectory, accepting both the current
// history format and the pre-PR6 single-snapshot format ({"scenarios":
// [...]}), which becomes a one-entry history labeled "pre-pr6".
func loadPerfFile(path string) (*perfFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return &perfFile{}, nil
		}
		return nil, err
	}
	var pf perfFile
	if err := json.Unmarshal(data, &pf); err == nil && pf.History != nil {
		return &pf, nil
	}
	var legacy struct {
		Scenarios []perfResult `json:"scenarios"`
	}
	if err := json.Unmarshal(data, &legacy); err != nil || legacy.Scenarios == nil {
		return nil, fmt.Errorf("unrecognized format in %s", path)
	}
	return &perfFile{History: []perfEntry{{Label: "pre-pr6", Scenarios: legacy.Scenarios}}}, nil
}

// runPerf executes the harness and appends the entry to the trajectory at
// path (replacing a same-labeled entry, so re-runs do not duplicate).
func runPerf(path string, opt perfOptions) error {
	if err := opt.applyEngine(); err != nil {
		return err
	}
	if opt.cpuProfile != "" {
		f, err := os.Create(opt.cpuProfile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	results := timeScenarios(opt.iters)
	if opt.memProfile != "" {
		f, err := os.Create(opt.memProfile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
			return err
		}
	}

	pf, err := loadPerfFile(path)
	if err != nil {
		return err
	}
	entry := perfEntry{
		Label:     perfLabelOrDefault(opt.label),
		Date:      time.Now().UTC().Format("2006-01-02"),
		Iters:     opt.iters,
		Scenarios: results,
	}
	replaced := false
	for i := range pf.History {
		if pf.History[i].Label == entry.Label {
			pf.History[i] = entry
			replaced = true
			break
		}
	}
	if !replaced {
		pf.History = append(pf.History, entry)
	}
	out, err := json.MarshalIndent(pf, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(out, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s (%s, %d entries)\n", path, entry.Label, len(pf.History))
	return nil
}

// runPerfCheck is the CI bench smoke: it re-times the scenarios, prints
// the events/sec delta against the committed trajectory's latest entry,
// and returns an error if any scenario regressed by more than tolerance
// (a fraction, e.g. 0.10).
func runPerfCheck(path string, opt perfOptions, tolerance float64) error {
	if err := opt.applyEngine(); err != nil {
		return err
	}
	pf, err := loadPerfFile(path)
	if err != nil {
		return err
	}
	if len(pf.History) == 0 {
		return fmt.Errorf("no committed entries in %s", path)
	}
	base := pf.History[len(pf.History)-1]
	committed := map[string]perfResult{}
	for _, r := range base.Scenarios {
		committed[r.Name] = r
	}
	results := timeScenarios(opt.iters)
	var regressed []string
	fmt.Printf("\nbench smoke vs %s (%s), tolerance %.0f%%:\n", base.Label, path, tolerance*100)
	for _, r := range results {
		c, ok := committed[r.Name]
		if !ok || c.EventsPerSec <= 0 {
			fmt.Printf("%-22s %10.0f events/s  (no committed baseline)\n", r.Name, r.EventsPerSec)
			continue
		}
		delta := r.EventsPerSec/c.EventsPerSec - 1
		status := "ok"
		if delta < -tolerance {
			status = "REGRESSED"
			regressed = append(regressed, r.Name)
		}
		fmt.Printf("%-22s %10.0f events/s  vs %10.0f  %+6.1f%%  %s\n",
			r.Name, r.EventsPerSec, c.EventsPerSec, delta*100, status)
	}
	if len(regressed) > 0 {
		return fmt.Errorf("%d scenario(s) regressed beyond %.0f%%: %s",
			len(regressed), tolerance*100, strings.Join(regressed, ", "))
	}
	return nil
}
