// Package schedsim is the public API of the reproduction of "The Battle of
// the Schedulers: FreeBSD ULE vs. Linux CFS" (Bouron et al., USENIX ATC
// 2018): a deterministic discrete-event multicore scheduler simulator with
// complete implementations of Linux's CFS and FreeBSD's ULE behind one
// scheduling-class interface, the paper's 37-application workload suite,
// and drivers for every figure and table in the paper's evaluation.
//
// Quickstart:
//
//	m := schedsim.New(schedsim.Config{Cores: 8, Scheduler: schedsim.ULE})
//	app := m.Start(schedsim.AppByName("MG"))
//	m.RunFor(10 * time.Second)
//	fmt.Println(app.Perf(), "ops/s")
//
// Reproduce a paper artifact:
//
//	res := schedsim.RunExperiment("table2", 1.0)
//	fmt.Println(res)
package schedsim

import (
	"time"

	"repro/internal/apps"
	"repro/internal/cfs"
	"repro/internal/core"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/ule"
)

// SchedulerKind selects a scheduling class.
type SchedulerKind = core.SchedulerKind

// Scheduler kinds. The set is open-ended: RegisterScheduler installs new
// classes or ablation variants, and any registered kind is accepted by
// Config.Scheduler and the experiment drivers.
const (
	// CFS is the Linux Completely Fair Scheduler (§2.1 of the paper).
	CFS = core.CFS
	// ULE is the FreeBSD scheduler as ported to Linux (§2.2, §3).
	ULE = core.ULE
	// FIFO is a minimal round-robin baseline scheduler.
	FIFO = core.FIFO

	// ULEPrevCPU places every wakeup on the thread's previous CPU (§6.3).
	ULEPrevCPU = core.ULEPrevCPU
	// ULEFullPreempt enables wakeup preemption for timeshare threads (§5.3).
	ULEFullPreempt = core.ULEFullPreempt
	// ULEStockBug reverts the FreeBSD 11.1 balancer-period fix (ref [1]).
	ULEStockBug = core.ULEStockBug
	// CFSNoCgroups disables group fairness (pre-2.6.38 behaviour).
	CFSNoCgroups = core.CFSNoCgroups
)

// MachineConfig is the low-level machine assembly spec scheduler factories
// receive; see RegisterScheduler.
type MachineConfig = core.MachineConfig

// SchedulerFactory builds a scheduler instance for one machine.
type SchedulerFactory = core.Factory

// RegisterScheduler installs a new scheduling class or ablation variant
// under kind. Registered kinds work everywhere a SchedulerKind does:
// Config.Scheduler, experiment machine configs, and the schedbattle CLI.
// Registering an existing kind is an error.
func RegisterScheduler(kind SchedulerKind, f SchedulerFactory) error {
	return core.Register(kind, f)
}

// SchedulerKinds lists every registered scheduler kind, sorted.
func SchedulerKinds() []SchedulerKind { return core.SchedulerKinds() }

// Config assembles a simulated machine.
type Config struct {
	// Cores selects the machine width: 1, 8, or 32 map onto the paper's
	// topologies (single core, desktop, 4-NUMA-node server); other values
	// build a flat machine.
	Cores int
	// Scheduler picks the scheduling class (default CFS).
	Scheduler SchedulerKind
	// Seed makes runs reproducible (default 42).
	Seed int64
	// KernelNoise starts per-core kworker threads, as on a live system.
	KernelNoise bool
	// CFSParams / ULEParams override scheduler tunables.
	CFSParams *cfs.Params
	ULEParams *ule.Params
	// Cost overrides the micro-architectural cost model.
	Cost *sim.CostModel
}

// Machine is a simulated multicore computer running one scheduler.
type Machine struct {
	// M is the underlying simulator, exposed for advanced use (custom
	// programs, probes, tracing).
	M *sim.Machine
}

// New builds a machine.
func New(cfg Config) *Machine {
	if cfg.Scheduler == "" {
		cfg.Scheduler = CFS
	}
	m := core.NewMachine(core.MachineConfig{
		Cores:       cfg.Cores,
		Kind:        cfg.Scheduler,
		Seed:        cfg.Seed,
		CFSParams:   cfg.CFSParams,
		ULEParams:   cfg.ULEParams,
		Cost:        cfg.Cost,
		KernelNoise: cfg.KernelNoise,
	})
	return &Machine{M: m}
}

// App is a workload from the paper's suite.
type App = apps.Spec

// AppInstance is a running application.
type AppInstance = apps.Instance

// AppByName finds an application model by its figure label ("MG",
// "sysbench", "apache", "hackb-10", "fibo", ...). It panics on unknown
// names; use AppNames for the catalog.
func AppByName(name string) App {
	s, err := apps.ByName(name)
	if err != nil {
		panic(err)
	}
	return s
}

// AppNames lists the catalog (the paper's Figure 8 bar order).
func AppNames() []string { return apps.Names() }

// Apps returns the single-core suite (Figure 5's 42 bars).
func Apps() []App { return apps.Catalog() }

// Start launches an application on the machine via a shell (so ULE
// inheritance behaves as in the paper) and returns its instance.
func (m *Machine) Start(app App) *AppInstance {
	return app.New(m.M, apps.Env{Cores: m.M.Topo.NCores()})
}

// StartAt launches an application at the given simulated time.
func (m *Machine) StartAt(app App, at time.Duration) *AppInstance {
	return app.New(m.M, apps.Env{Cores: m.M.Topo.NCores(), StartAt: at})
}

// RunFor advances the simulation by d.
func (m *Machine) RunFor(d time.Duration) { m.M.Run(m.M.Now() + d) }

// RunUntil advances until pred holds or max elapses; reports whether pred
// was satisfied.
func (m *Machine) RunUntil(pred func() bool, max time.Duration) bool {
	return m.M.RunUntil(pred, m.M.Now()+max)
}

// Now returns the simulated clock.
func (m *Machine) Now() time.Duration { return m.M.Now() }

// RunnableCounts samples the per-core runnable thread counts (the Figures
// 6/7 heatmap rows).
func (m *Machine) RunnableCounts() []int { return m.M.RunnableCounts() }

// ShellWarmup is the simulated time a freshly built machine needs before
// application launch (the launching shell accumulates the sleep history
// ULE's inheritance depends on).
const ShellWarmup = apps.ShellWarmup

// Experiment is a registered paper artifact (figure/table/ablation).
type Experiment = core.Experiment

// Result is an experiment's output.
type Result = core.Result

// Experiments lists all registered paper artifacts.
func Experiments() []Experiment { return core.Experiments() }

// RunExperiment runs one artifact by id ("fig1".."fig9", "table2",
// "overhead", "ablation-*") at the given scale (1.0 = paper-sized; smaller
// shrinks durations). It panics on unknown ids. The experiment's trial grid
// executes on a worker pool SetJobs wide; results are byte-identical
// whatever the pool width, because every trial owns a private deterministic
// machine and results merge in trial order.
func RunExperiment(id string, scale float64) *Result {
	e, err := core.ByID(id)
	if err != nil {
		panic(err)
	}
	return e.Run(scale)
}

// SetJobs sets how many trials of an experiment grid run concurrently
// (n < 1 restores the default, GOMAXPROCS). Parallelism never changes
// results — only wall-clock time.
func SetJobs(n int) { runner.SetWorkers(n) }

// SetBaseSeed installs a deterministic per-trial seed perturbation for all
// experiment grids. Zero (the default) keeps the paper-tuned seeds;
// any other value re-derives every trial's seed from (base, trial name,
// trial index), for repeat-trial variance studies.
func SetBaseSeed(s int64) { core.SetBaseSeed(s) }
