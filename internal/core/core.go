// Package core is the reproduction's experiment harness — the paper's
// primary contribution is the apples-to-apples comparison of ULE and CFS in
// an otherwise identical environment, and this package encodes every
// comparison the evaluation (§5–§6) reports: one driver per figure and
// table, each returning the same rows/series the paper plots, plus the
// ablations DESIGN.md lists.
package core

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/apps"
	"repro/internal/cfs"
	"repro/internal/probe"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/ule"
)

// SchedulerKind selects a scheduling class.
type SchedulerKind string

// Built-in scheduler kinds. The set is open: Register adds new classes or
// ablation variants at runtime, and anything registered is accepted
// everywhere a SchedulerKind is.
const (
	CFS  SchedulerKind = "cfs"
	ULE  SchedulerKind = "ule"
	FIFO SchedulerKind = "fifo"

	// Ablation variants of the built-ins (see registry.go).
	ULEPrevCPU     SchedulerKind = "ule-prevcpu"
	ULEFullPreempt SchedulerKind = "ule-fullpreempt"
	ULEStockBug    SchedulerKind = "ule-stockbug"
	CFSNoCgroups   SchedulerKind = "cfs-nocgroups"
)

// MachineConfig assembles a simulated machine for an experiment.
type MachineConfig struct {
	// Cores selects the topology: 1 uses a single-core machine, 8 the
	// desktop layout, anything else the paper's 32-core/4-node box.
	Cores int
	// Kind picks the scheduler.
	Kind SchedulerKind
	// Seed drives all randomness.
	Seed int64
	// CFSParams/ULEParams override scheduler defaults when non-nil.
	CFSParams *cfs.Params
	ULEParams *ule.Params
	// Cost overrides the default cost model when non-nil.
	Cost *sim.CostModel
	// KernelNoise starts per-core kworker threads (multicore experiments).
	KernelNoise bool
}

// Topology returns the topo for the configured core count.
func (mc MachineConfig) Topology() *topo.Topology {
	switch mc.Cores {
	case 0, 32:
		return topo.Default()
	case 1:
		return topo.SingleCore()
	case 8:
		return topo.Small()
	default:
		return topo.MustNew(topo.Config{NUMANodes: 1, LLCsPerNode: 1, CoresPerLLC: mc.Cores})
	}
}

// NewMachine builds the machine and scheduler. The scheduler is resolved
// through the registry, so any kind installed with Register — built-in,
// ablation variant, or external class — works here. It panics on unknown
// kinds; use NewScheduler to get an error instead.
func NewMachine(mc MachineConfig) *sim.Machine {
	sched, err := NewScheduler(mc)
	if err != nil {
		panic(err)
	}
	if mc.Seed == 0 {
		mc.Seed = 42
	}
	m := sim.NewMachine(mc.Topology(), sched, sim.Options{Seed: mc.Seed, Cost: mc.Cost})
	if mc.KernelNoise {
		apps.StartKernelNoise(m, 15*time.Millisecond, 300*time.Microsecond)
	}
	return m
}

// Row is one output row of an experiment (a table line or a bar).
type Row struct {
	Label  string
	Values map[string]float64
	// Order lists value keys in printing order.
	Order []string
}

// Result is an experiment's output: rows (tables/bars) and named series
// (figures), plus free-form notes.
type Result struct {
	ID    string
	Title string
	Rows  []Row
	// Series holds figure curves, e.g. per-thread cumulative runtimes,
	// recorded through the probe telemetry layer.
	Series map[string]*probe.Set
	Notes  []string
}

// AddNote appends a free-form observation.
func (r *Result) AddNote(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// AddSeries installs a named series set, allocating the map on first use.
func (r *Result) AddSeries(name string, set *probe.Set) {
	if r.Series == nil {
		r.Series = map[string]*probe.Set{}
	}
	r.Series[name] = set
}

// Merge appends o's rows and notes and adopts its series sets. When both
// results carry a set of the same name, o's series are folded in via
// probe.Set.Merge, which *replaces* same-named series — so drivers
// whose sub-results can record identically-named series (e.g. repeat
// trials of one kind) must give the sets or series distinct names to keep
// both recordings. Folding sub-results in stable trial order keeps merged
// output identical however the trials were scheduled.
func (r *Result) Merge(o *Result) {
	if o == nil {
		return
	}
	r.Rows = append(r.Rows, o.Rows...)
	r.Notes = append(r.Notes, o.Notes...)
	names := make([]string, 0, len(o.Series))
	for name := range o.Series {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if existing, ok := r.Series[name]; ok {
			existing.Merge(o.Series[name])
		} else {
			r.AddSeries(name, o.Series[name])
		}
	}
}

// String renders the result as aligned text, the form the harness prints.
func (r *Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", r.ID, r.Title)
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-18s", row.Label)
		keys := row.Order
		if keys == nil {
			for k := range row.Values {
				keys = append(keys, k)
			}
			sort.Strings(keys)
		}
		for _, k := range keys {
			fmt.Fprintf(&b, "  %s=%.4g", k, row.Values[k])
		}
		b.WriteString("\n")
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Experiment is a registered, runnable paper artifact.
type Experiment struct {
	ID    string
	Title string
	// Run executes with the given scale in (0,1]; 1 is the paper-sized
	// run, smaller values shrink durations for benchmarks.
	Run func(scale float64) *Result
}

var registry []Experiment

func register(e Experiment) { registry = append(registry, e) }

// Experiments lists all registered experiments in registration order.
func Experiments() []Experiment { return registry }

// ByID finds an experiment.
func ByID(id string) (Experiment, error) {
	for _, e := range registry {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("core: unknown experiment %q", id)
}

// scaleDur shortens a duration by the scale factor, with a floor.
func scaleDur(d time.Duration, scale float64, floor time.Duration) time.Duration {
	out := time.Duration(float64(d) * scale)
	if out < floor {
		out = floor
	}
	return out
}
